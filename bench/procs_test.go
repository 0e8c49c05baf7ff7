package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stat    string
		want    uint64
		wantErr bool
	}{
		{
			name: "plain",
			stat: "4242 (gqlserver) S 1 4242 4242 0 -1 4194560 1234 0 0 0 310 45 0 0 20 0 9 0 100 1 2 3\n",
			want: 355,
		},
		{
			// The command may hold spaces and parentheses; fields count
			// from the last ')'.
			name: "hostile command name",
			stat: "7 (a) b (c)) R 1 7 7 0 -1 0 0 0 0 0 12 3 0 0 20 0 1 0 5 0 0\n",
			want: 15,
		},
		{name: "no command", stat: "7 gqlserver S 1", wantErr: true},
		{name: "truncated", stat: "7 (x) S 1 7 7 0 -1 0 0 0 0 0 12", wantErr: true},
		{name: "not numbers", stat: "7 (x) S 1 7 7 0 -1 0 0 0 0 0 u s 0 0 20", wantErr: true},
	} {
		got, err := parseStatCPU([]byte(tc.stat))
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: ticks = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tgqlserver\nVmPeak:\t 1234567 kB\nVmHWM:\t   73432 kB\nVmRSS:\t   70000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil || got != 73432 {
		t.Fatalf("parseVmHWM = %d, %v; want 73432", got, err)
	}
	for name, bad := range map[string]string{
		"missing":   "Name:\tx\nVmRSS:\t 1 kB\n",
		"no unit":   "VmHWM:\t 5\n",
		"odd unit":  "VmHWM:\t 5 MB\n",
		"not a num": "VmHWM:\t five kB\n",
	} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("%s: parseVmHWM accepted %q", name, bad)
		}
	}
}
