package core

import (
	"sort"

	"spotlight/internal/hw"
)

// dominates reports whether a is at least as good as b on every axis and
// strictly better on at least one (all axes minimized).
func dominates(a, b Design) bool {
	ao, aa, ap := a.Objective, a.Accel.AreaMM2(), a.Accel.PeakPowerMW()
	bo, ba, bp := b.Objective, b.Accel.AreaMM2(), b.Accel.PeakPowerMW()
	if ao > bo || aa > ba || ap > bp {
		return false
	}
	return ao < bo || aa < ba || ap < bp
}

// ParetoFrontier maintains the set of mutually non-dominated designs
// seen during a search, over (objective, area, peak power). Spotlight
// performs single-objective optimization, but §VI-B selects the final
// configuration from this frontier: the design closest to the area and
// power budgets without exceeding them.
type ParetoFrontier struct {
	points []Design
}

// Add offers a design to the frontier. Dominated offers are discarded;
// an accepted offer evicts any designs it dominates. Returns true if the
// design joined the frontier.
func (p *ParetoFrontier) Add(d Design) bool {
	for _, q := range p.points {
		if dominates(q, d) || (q.Accel == d.Accel && q.Objective == d.Objective) { //lint:allow floateq(exact dedup of a re-offered identical design; a tolerance would merge distinct designs)
			return false
		}
	}
	kept := p.points[:0]
	for _, q := range p.points {
		if !dominates(d, q) {
			kept = append(kept, q)
		}
	}
	p.points = append(kept, d)
	return true
}

// Len returns the number of designs on the frontier.
func (p *ParetoFrontier) Len() int { return len(p.points) }

// Designs returns the frontier sorted by ascending objective.
func (p *ParetoFrontier) Designs() []Design {
	out := append([]Design(nil), p.points...)
	sort.Slice(out, func(i, j int) bool { return out[i].Objective < out[j].Objective })
	return out
}

// SelectWithinBudget implements the §VI-B selection rule: among frontier
// designs that fit the budget, return the one closest to the budget
// (maximizing normalized area + power utilization) — i.e., the design
// that spends the allowance rather than stranding it. Ties favor the
// better objective because Designs() is objective-sorted. The second
// return is false when no frontier design fits.
func (p *ParetoFrontier) SelectWithinBudget(b hw.Budget) (Design, bool) {
	best := -1.0
	var pick Design
	found := false
	for _, d := range p.Designs() {
		if !b.Fits(d.Accel) {
			continue
		}
		closeness := d.Accel.AreaMM2()/b.AreaMM2 + d.Accel.PeakPowerMW()/b.PowerMW
		if closeness > best {
			best = closeness
			pick = d
			found = true
		}
	}
	return pick, found
}

// TopDesigns is a bounded best-K collection of distinct designs by
// objective. §VII-F recommends carrying the top ~20 designs forward to a
// second evaluation medium rather than trusting a single optimum; the
// co-design driver fills one of these during the hardware search.
type TopDesigns struct {
	K       int
	designs []Design
}

// Add offers a design; it is kept if it ranks among the best K distinct
// accelerators seen.
func (t *TopDesigns) Add(d Design) {
	if t.K <= 0 {
		return
	}
	for i, q := range t.designs {
		if q.Accel == d.Accel {
			if d.Objective < q.Objective {
				t.designs[i] = d
				t.sort()
			}
			return
		}
	}
	t.designs = append(t.designs, d)
	t.sort()
	if len(t.designs) > t.K {
		t.designs = t.designs[:t.K]
	}
}

func (t *TopDesigns) sort() {
	sort.Slice(t.designs, func(i, j int) bool {
		return t.designs[i].Objective < t.designs[j].Objective
	})
}

// Designs returns the retained designs, best first.
func (t *TopDesigns) Designs() []Design {
	return append([]Design(nil), t.designs...)
}
