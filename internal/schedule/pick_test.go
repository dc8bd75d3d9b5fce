package schedule

import "testing"

// scanPick is the reference selection: the betterCandidate fold over every
// device with a choice, in device order — what the scan engine computes.
func scanPick(starts []float64, prios []int, present []bool) (int, bool) {
	bestD, bestStart, bestPrio := -1, 0.0, 0
	for d := range starts {
		if present[d] && betterCandidate(starts[d], prios[d], d, bestD >= 0, bestStart, bestPrio, bestD) {
			bestD, bestStart, bestPrio = d, starts[d], prios[d]
		}
	}
	return bestD, bestD >= 0
}

// heapPick runs pickDevice over the same cached choices, loaded into the
// device heap the way refreshDirty loads them.
func heapPick(starts []float64, prios []int, present []bool) (int, bool) {
	e := &engine{heap: newDeviceHeap(len(starts)), choiceStart: starts, choicePrio: prios}
	for d := range starts {
		if present[d] {
			e.heap.update(d, starts[d], prios[d])
		}
	}
	return e.pickDevice()
}

// TestPickDeviceClimbingCluster pins two near-tie clusters that reach past
// any fixed window above the minimum start (offsets in units of tieTol).
// In "restarted chain", device 5 starts strictly earlier than the running
// best (device 4) and restarts the priority chain, which then climbs to
// device 9 at 6.1 above the minimum; a refold limited to min + 5 stopped at
// device 7. In "descending ladder", every step is a near-tie of the last,
// and which devices count as strictly earlier depends on device 0, 5.4
// above the minimum; without it the same refold picked device 5.
func TestPickDeviceClimbingCluster(t *testing.T) {
	for _, tc := range []struct {
		name    string
		offsets []float64
		prios   []int
		want    int
	}{
		{"restarted chain", []float64{0, .9, 1.8, 2.7, 3.6, 2.5, 3.4, 4.3, 5.2, 6.1},
			[]int{4, 3, 2, 1, 0, 4, 3, 2, 1, 0}, 9},
		{"descending ladder", []float64{5.4, 4.5, 3.6, 2.7, 1.8, .9, 0},
			[]int{3, 3, 3, 3, 3, 3, 3}, 6},
	} {
		present := make([]bool, len(tc.offsets))
		for d := range present {
			present[d] = true
		}
		for _, base := range []float64{0, 1e-3, 0.25} {
			starts := make([]float64, len(tc.offsets))
			for d, o := range tc.offsets {
				starts[d] = base + o*tieTol
			}
			if want, _ := scanPick(starts, tc.prios, present); want != tc.want {
				t.Fatalf("%s, base %v: scan fold picks %d, want %d", tc.name, base, want, tc.want)
			}
			if got, ok := heapPick(starts, tc.prios, present); !ok || got != tc.want {
				t.Errorf("%s, base %v: pickDevice = %d (ok %v), scan fold = %d", tc.name, base, got, ok, tc.want)
			}
		}
	}
}

// FuzzPickDevice holds pickDevice to the scan fold on small device sets.
// Each device takes two bytes. The first places its start: an exact tie
// with the base, a fraction of tieTol above it, a step of −1.6 to +4.7
// tieTol from the previous device (so runs of equal bytes form near-tie
// ladders that chain far from the minimum), or a far value. The second
// sets its priority and whether it has a choice at all.
func FuzzPickDevice(f *testing.F) {
	// The restarted chain: steps of +0.9, one of −1.1, then +0.9 again.
	f.Add(0.0, []byte{0, 4, 0x99, 3, 0x99, 2, 0x99, 1, 0x99, 0, 0x85, 4, 0x99, 3, 0x99, 2, 0x99, 1, 0x99, 0})
	// A ladder up to 5.4 above the base, then down in steps of −0.9.
	f.Add(0.0, []byte{0xbf, 3, 0x97, 3, 0x87, 3, 0x87, 3, 0x87, 3, 0x87, 3, 0x87, 3, 0x87, 3})
	f.Add(1.5, []byte{0, 3, 0, 1, 0x40, 0, 0xc1, 0, 0x60, 2})
	f.Add(7.25, []byte{0x45, 4, 0x4a, 2, 0x50, 0, 0x5f, 1, 0x7f, 3, 0xff, 39})
	f.Fuzz(func(t *testing.T, base float64, raw []byte) {
		if !(base >= 0 && base <= 1e6) {
			t.Skip() // engine starts are finite and non-negative
		}
		n := min(len(raw)/2, 16)
		starts := make([]float64, n)
		prios := make([]int, n)
		present := make([]bool, n)
		for d := 0; d < n; d++ {
			placement, meta := raw[2*d], raw[2*d+1]
			k := float64(placement & 63)
			switch placement >> 6 {
			case 0:
				starts[d] = base
			case 1:
				starts[d] = base + k/32*tieTol
			case 2:
				prev := base
				if d > 0 {
					prev = starts[d-1]
				}
				starts[d] = max(base, prev+(k-16)*0.1*tieTol)
			default:
				starts[d] = base + k*1e-3
			}
			prios[d] = int(meta % 5)
			present[d] = meta/5%8 != 7
		}
		want, wantOK := scanPick(starts, prios, present)
		got, gotOK := heapPick(starts, prios, present)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("pickDevice = %d/%v, scan fold = %d/%v\nstarts %v\nprios %v\npresent %v",
				got, gotOK, want, wantOK, starts, prios, present)
		}
	})
}
