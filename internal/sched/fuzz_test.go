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
