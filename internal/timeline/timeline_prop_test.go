package timeline

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// refPlace is the brute-force specification of Place for an unpruned
// timeline: try every candidate start — the (clamped) arrival itself and
// the end of every existing reservation at or after it — in ascending
// order, and take the first one whose [start, start+dur) window overlaps no
// existing reservation. O(n^2) and obviously correct, which is the point.
type refTimeline struct {
	starts, ends []uint64
}

func (r *refTimeline) place(now, dur uint64) uint64 {
	if dur == 0 {
		return now
	}
	cands := []uint64{now}
	for _, e := range r.ends {
		if e > now {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, s := range cands {
		ok := true
		for i := range r.starts {
			if s < r.ends[i] && r.starts[i] < s+dur {
				ok = false
				break
			}
		}
		if ok {
			r.starts = append(r.starts, s)
			r.ends = append(r.ends, s+dur)
			return s
		}
	}
	panic("unreachable: the end of the last interval always fits")
}

// TestPlacePropertyRandomArrivals drives Place with seeded random
// out-of-order arrival sequences and checks, at every step, the three
// properties the shared-resource timing model relies on:
//
//  1. non-negative wait: a request is never served before it arrives;
//  2. non-overlapping reservations: no two placements share a cycle;
//  3. earliest-gap placement: the start matches the brute-force reference,
//     so a request is served at the first instant the resource is actually
//     free at or after its own arrival, regardless of presentation order.
func TestPlacePropertyRandomArrivals(t *testing.T) {
	type placed struct{ start, end uint64 }
	for seed := uint64(1); seed <= 25; seed++ {
		// Capacity far above the sequence length: pruning (covered by the
		// unit tests) never fires, so the reference needs no floor model.
		tl := New(1 << 20)
		ref := &refTimeline{}
		src := rng.New(seed * 0x9E3779B97F4A7C15)
		var history []placed
		for step := 0; step < 400; step++ {
			// Arrivals jump arbitrarily backwards and forwards in time —
			// far more hostile than the bounded skew of the event loop.
			now := uint64(src.Intn(4096))
			dur := uint64(src.Intn(8))
			if src.Intn(8) == 0 {
				dur = 0 // probe-only requests reserve nothing
			}

			got := tl.Place(now, dur)
			want := ref.place(now, dur)
			if got != want {
				t.Fatalf("seed %d step %d: Place(%d,%d) = %d, reference %d",
					seed, step, now, dur, got, want)
			}
			if got < now {
				t.Fatalf("seed %d step %d: Place(%d,%d) served at %d, before arrival",
					seed, step, now, dur, got)
			}
			if dur == 0 {
				continue
			}
			for _, p := range history {
				if got < p.end && p.start < got+dur {
					t.Fatalf("seed %d step %d: [%d,%d) overlaps earlier reservation [%d,%d)",
						seed, step, got, got+dur, p.start, p.end)
				}
			}
			history = append(history, placed{got, got + dur})
		}
	}
}

// TestPlaceInOrderDegeneratesToHighWaterMark checks the documented
// fast-path equivalence: monotonic contiguous traffic must collapse to a
// single merged interval and behave exactly like a busy-until mark.
func TestPlaceInOrderDegeneratesToHighWaterMark(t *testing.T) {
	tl := New(0)
	var mark uint64
	for i := 0; i < 300; i++ {
		now := uint64(i) * 3 // arrivals slower than service: queue builds
		start := tl.Place(now, 4)
		want := now
		if mark > want {
			want = mark
		}
		if start != want {
			t.Fatalf("step %d: start %d, high-water mark predicts %d", i, start, want)
		}
		mark = start + 4
	}
	if n := tl.Intervals(); n != 1 {
		t.Fatalf("contiguous in-order traffic left %d intervals, want 1 merged", n)
	}
}

// FuzzPlace checks Place against the brute-force earliest-gap reference on
// arbitrary request sequences, pruning included. Each three input bytes are
// one request: a 12-bit arrival time and a 4-bit duration (0 reserves
// nothing). capSel picks a history cap; small caps prune the list every few
// requests. Pruning drops only intervals that end at or before the new
// floor, so the reference keeps its whole history and places from the
// arrival clamped to the floor the timeline reports before each request.
// Probe must predict every Place.
//
//	go test ./internal/timeline -run '^$' -fuzz FuzzPlace -fuzztime 5s
func FuzzPlace(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 4, 0, 0, 4, 8, 0, 4, 2, 0, 3})
	f.Add(uint8(2), []byte{40, 0, 4, 0, 0, 4, 1, 0, 4, 41, 0, 4, 2, 0, 4, 100, 0, 4, 99, 0, 4})
	f.Add(uint8(3), []byte{0xff, 0x0f, 0x0f, 0, 0, 0xff, 1, 0, 0x10, 0xfe, 0x0f, 0x0f})
	f.Fuzz(func(t *testing.T, capSel uint8, reqs []byte) {
		if len(reqs) > 3*128 {
			reqs = reqs[:3*128] // the reference is quadratic per request
		}
		tl := New(int(capSel % 8))
		ref := &refTimeline{}
		floor := tl.Floor()
		for k := 0; k+3 <= len(reqs); k += 3 {
			now := uint64(reqs[k]) | uint64(reqs[k+1]&0x0f)<<8
			dur := uint64(reqs[k+2] & 0x0f)
			if fl := tl.Floor(); fl < floor {
				t.Fatalf("request %d: floor fell from %d to %d", k/3, floor, fl)
			}
			floor = tl.Floor()

			probe := tl.Probe(now, dur)
			got := tl.Place(now, dur)
			want := ref.place(max(now, floor), dur)
			if got != want {
				t.Fatalf("request %d: Place(%d, %d) = %d with floor %d, reference %d",
					k/3, now, dur, got, floor, want)
			}
			if probe != got {
				t.Fatalf("request %d: Probe(%d, %d) = %d, Place = %d", k/3, now, dur, probe, got)
			}
			if got < now {
				t.Fatalf("request %d: Place(%d, %d) served at %d, before arrival", k/3, now, dur, got)
			}
		}
	})
}
