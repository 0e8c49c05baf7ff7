// Package pool is analyzer corpus for gosafe: the worker pool's entry
// point, whose function-literal argument runs on worker goroutines.
package pool

import "context"

// Run mimics the worker pool's entry point: fn runs on worker goroutines,
// so gosafe checks a function literal passed here like a goroutine body.
func Run(ctx context.Context, n, workers int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return ctx.Err()
}
