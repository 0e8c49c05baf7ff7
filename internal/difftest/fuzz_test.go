package difftest

import "testing"

// FuzzEnginesAgree is TestEnginesAgree with the trial drawn from the
// input: the generator seed, the member count (one to five), the largest
// member size (4 to 36 nodes), a 128-to-160-node member that the store
// serves with its index, directedness, and a partially labelled label
// pattern.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(20), false, false, false)
	f.Add(int64(2), uint8(4), uint8(10), false, true, true)
	f.Add(int64(3), uint8(1), uint8(32), true, true, true)
	f.Fuzz(func(t *testing.T, seed int64, members, nodes uint8, big, directed, partial bool) {
		sh := shape{members: 1 + int(members%5), maxNodes: 4 + int(nodes%33), directed: directed}
		if big {
			sh.big = 128 + int(nodes%33)
		}
		trial(t, seed, sh, partial)
	})
}
