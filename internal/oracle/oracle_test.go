package oracle

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// tinyLayer has an enumerable schedule space: sizes 1,4,2,1,1,4,4.
func tinyLayer() workload.Layer {
	return workload.Conv("tiny", 1, 4, 2, 1, 1, 4, 4)
}

func testAccel() hw.Accel {
	return hw.Accel{PEs: 16, Width: 4, SIMDLanes: 2, RFKB: 64, L2KB: 64, NoCBW: 64}
}

func TestStructuredOrdersAreValidPermutations(t *testing.T) {
	orders := StructuredOrders()
	if len(orders) != workload.NumDims+3 {
		t.Fatalf("got %d orders, want %d", len(orders), workload.NumDims+3)
	}
	for _, o := range orders {
		var seen [workload.NumDims]bool
		for _, d := range o {
			if seen[d] {
				t.Fatalf("order %v is not a permutation", o)
			}
			seen[d] = true
		}
	}
}

func TestSpaceSizeRejection(t *testing.T) {
	big := workload.Conv("big", 1, 64, 64, 3, 3, 34, 34)
	_, err := BestSchedule(maestro.New(), core.MinDelay, testAccel(), big, Options{MaxPoints: 1000})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
}

func TestOracleFindsFeasibleOptimum(t *testing.T) {
	l := tinyLayer()
	res, err := BestSchedule(maestro.New(), core.MinDelay, testAccel(), l, Options{Orders: StructuredOrders()[:3]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid == 0 || res.Evaluated < res.Valid {
		t.Fatalf("bad counts: %+v", res)
	}
	if math.IsInf(res.BestCost, 1) || res.BestCost <= 0 {
		t.Fatalf("bad optimum: %v", res.BestCost)
	}
	if err := res.Best.Validate(l); err != nil {
		t.Fatalf("optimum schedule invalid: %v", err)
	}
	// Verify it really is a minimum over a random re-sampling of the
	// same space.
	eval := maestro.New()
	rng := rand.New(rand.NewSource(1))
	free := sched.Free()
	a := testAccel()
	for i := 0; i < 2000; i++ {
		s := free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		// Restrict to the enumerated order subset for a fair check.
		s.OuterOrder = res.Best.OuterOrder
		s.InnerOrder = res.Best.InnerOrder
		c, err := eval.Evaluate(a, s, l)
		if err != nil {
			continue
		}
		if c.DelayCycles < res.BestCost-1e-9 {
			t.Fatalf("random sample %v beats the oracle %v:\n%s", c.DelayCycles, res.BestCost, s)
		}
	}
}

func TestSpotlightApproachesOracle(t *testing.T) {
	// daBO_SW with a modest budget should land within a small factor of
	// the exhaustive optimum on a tiny layer.
	l := tinyLayer()
	a := testAccel()
	eval := maestro.New()
	oracleRes, err := BestSchedule(eval, core.MinDelay, a, l, Options{Orders: StructuredOrders()[:3]})
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.RunConfig{
		Models:    []workload.Model{{Name: "tiny", Layers: []workload.Layer{l}}},
		Objective: core.MinDelay,
		HWSamples: 1,
		SWSamples: 120,
		Eval:      eval,
	}
	strat := core.NewSpotlight()
	rng := rand.New(rand.NewSource(5))
	lr, _, err := core.OptimizeLayer(context.Background(), cfg, strat, rng, a, l, cfg.SWSamples)
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Valid {
		t.Fatal("daBO_SW found no feasible schedule")
	}
	// The searcher explores all orders while the oracle enumerated a
	// subset, so ratios below 1 are possible and fine.
	ratio := lr.Cost.DelayCycles / oracleRes.BestCost
	if ratio > 2.0 {
		t.Fatalf("daBO_SW result %.4g is %.2fx the oracle optimum %.4g",
			lr.Cost.DelayCycles, ratio, oracleRes.BestCost)
	}
}

func TestOracleSpaceSizeMonotone(t *testing.T) {
	small := SpaceSize(tinyLayer(), Options{})
	bigger := SpaceSize(workload.Conv("b", 1, 8, 4, 1, 1, 4, 4), Options{})
	if bigger <= small {
		t.Fatalf("space size not monotone: %v vs %v", bigger, small)
	}
}

func TestOracleInfeasibleAccel(t *testing.T) {
	// A register file too small for even unit tiles makes everything
	// infeasible.
	a := testAccel()
	a.PEs = 16384
	a.Width = 128
	a.RFKB = 16 // 1 byte per PE
	if _, err := BestSchedule(maestro.New(), core.MinDelay, a, tinyLayer(), Options{Orders: StructuredOrders()[:2]}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}
