package sched

import (
	"testing"

	"spotlight/internal/workload"
)

func FuzzDivisors(f *testing.F) {
	for _, seed := range []int{0, 1, 2, 12, 97, 1024, 230} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, n int) {
		if n > 1<<20 {
			n %= 1 << 20
		}
		divs := Divisors(n)
		if n <= 0 {
			if divs != nil {
				t.Fatalf("Divisors(%d) = %v, want nil", n, divs)
			}
			return
		}
		prev := 0
		for _, d := range divs {
			if d <= prev {
				t.Fatalf("Divisors(%d) not strictly increasing: %v", n, divs)
			}
			if n%d != 0 {
				t.Fatalf("Divisors(%d) contains non-divisor %d", n, d)
			}
			prev = d
		}
		if len(divs) == 0 || divs[0] != 1 || divs[len(divs)-1] != n {
			t.Fatalf("Divisors(%d) missing endpoints: %v", n, divs)
		}
	})
}

func FuzzFitTiles(f *testing.F) {
	f.Add(8, 8, 3, 20, int64(512), int64(1<<16))
	f.Add(64, 32, 1, 14, int64(64), int64(1<<20))
	f.Add(1, 1, 1, 1, int64(1), int64(1))
	f.Fuzz(func(t *testing.T, k, c, rs, xy int, rfBytes, l2Bytes int64) {
		k = clamp(k, 1, 512)
		c = clamp(c, 1, 512)
		rs = clamp(rs, 1, 7)
		xy = clamp(xy, rs, 64)
		rfBytes = clamp64(rfBytes, 1, 1<<20)
		l2Bytes = clamp64(l2Bytes, 1, 1<<24)
		l := workload.Conv("fuzz", 1, k, c, rs, rs, xy, xy)
		if l.Validate() != nil {
			t.Skip()
		}
		t1, t2 := FitTiles(l, rfBytes, l2Bytes)
		for i, d := range workload.AllDims {
			if t1[i] < 1 || t2[i] < 1 {
				t.Fatalf("non-positive tile at %v: %v %v", d, t1[i], t2[i])
			}
			if l.Size(d)%t2[i] != 0 || t2[i]%t1[i] != 0 {
				t.Fatalf("divisibility broken at %v: size=%d t2=%d t1=%d", d, l.Size(d), t2[i], t1[i])
			}
		}
	})
}

// FuzzRecordDecode: for any seed, constraint and layer, recording
// draws with Skip and decoding them (or Skip's replay of a flagged
// draw) gives RandomTo's schedules and leaves the generator where
// RandomTo leaves it, over a plain source and one that forces the
// rejection loops.
func FuzzRecordDecode(f *testing.F) {
	f.Add(int64(1), uint8(0), 64, 64, 3, 56)
	f.Add(int64(4242), uint8(5), 512, 1000, 1, 1)
	f.Add(int64(-7), uint8(7), 96, 24, 5, 28)
	f.Fuzz(func(t *testing.T, seed int64, ci uint8, k, c, rs, xy int) {
		cs := allConstraints()
		cons := cs[int(ci)%len(cs)]
		k = clamp(k, 1, 4096)
		c = clamp(c, 1, 4096)
		rs = clamp(rs, 1, 7)
		xy = clamp(xy, rs, 256)
		l := workload.Conv("fuzz", 1, k, c, rs, rs, xy, xy)
		if l.Validate() != nil {
			t.Skip()
		}
		sp := cons.Sampler(l, 64, 32<<10)
		for _, edgy := range []bool{false, true} {
			r1, r2 := twins(seed, edgy)
			checkRecordDraws(t, cons.Name, sp, r1, r2, 8)
		}
	})
}

func clamp(v, lo, hi int) int {
	if v < lo {
		v = -v
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return lo + v%(hi-lo+1)
	}
	return v
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		v = -v
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return lo + v%(hi-lo+1)
	}
	return v
}
