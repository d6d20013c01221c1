package noc

import "testing"

// TestVCBufRing exercises the fixed-capacity ring buffer through several
// wrap-arounds, including interleaved push/pop.
func TestVCBufRing(t *testing.T) {
	const depth = 4
	v := &vcBuf{flits: make([]flit, depth)}
	pkt := &Packet{}

	next := 0 // next sequence to push
	want := 0 // next sequence expected from pop
	for round := 0; round < 3*depth; round++ {
		// Fill to capacity...
		for v.n < depth {
			v.push(pkt, next, 0)
			next++
		}
		if v.head().seq != want {
			t.Fatalf("round %d: head seq %d, want %d", round, v.head().seq, want)
		}
		// ...then drain a varying amount so hd lands on every slot.
		drain := 1 + round%depth
		for i := 0; i < drain; i++ {
			f := v.pop()
			if f.seq != want {
				t.Fatalf("round %d: pop seq %d, want %d", round, f.seq, want)
			}
			want++
		}
	}
	// Drain the rest.
	for v.n > 0 {
		if f := v.pop(); f.seq != want {
			t.Fatalf("final drain: pop seq %d, want %d", f.seq, want)
		} else {
			want++
		}
	}
	if want != next {
		t.Fatalf("popped %d flits, pushed %d", want, next)
	}
	// pop deliberately leaves stale flit values behind (clearing them cost
	// a measurable slice of the traversal path): readers are required to
	// stay inside the occupied window [hd, hd+n), so an empty ring means
	// nothing is interpretable.
	if v.n != 0 {
		t.Fatalf("ring not empty after drain: n=%d", v.n)
	}
}
