package speed

import (
	"math"
	"testing"

	"dvsreject/internal/power"
)

// TestCurveMatchesProcEnergy pins the Curve's exactness contract: over
// every processor flavour and a dense workload grid (including the
// capacity edge, zero, and invalid inputs), Curve.Energy must reproduce
// Proc.Energy bit for bit. With fastPow on, the cubic and quadratic
// closed continuous curves may drift by 1e-12 relative; every other
// flavour ignores the flag and stays bit-identical.
func TestCurveMatchesProcEnergy(t *testing.T) {
	procs := map[string]Proc{
		"cubic-ideal":    {Model: power.Cubic(), SMax: 1},
		"quadratic":      {Model: power.Polynomial{Pind: 0.05, Coeff: 0.7, Alpha: 2}, SMin: 0.1, SMax: 1.2},
		"alpha-2.5":      {Model: power.Polynomial{Coeff: 1.3, Alpha: 2.5}, SMax: 1},
		"xscale-leaky":   {Model: power.XScale(), SMin: 0.15, SMax: 1},
		"xscale-smin0":   {Model: power.XScale(), SMax: 0.8},
		"discrete":       {Model: power.XScale(), Levels: power.XScaleLevels()},
		"dormant":        {Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 0.3},
		"dormant-costly": {Model: power.XScale(), SMax: 1, DormantEnable: true, Esw: 1e6},
	}
	// Flavours whose energy takes the closed form with an integer α.
	powDrift := map[string]bool{"cubic-ideal": true, "quadratic": true, "xscale-leaky": true, "xscale-smin0": true}
	for name, p := range procs {
		for _, fastPow := range []bool{false, true} {
			for _, d := range []float64{1, 37.5, 1000} {
				c := NewCurve(p, d, fastPow)
				cap := p.Capacity(d)
				ws := []float64{0, 1e-9, 0.1, 1, d / 3, cap / 2, cap * 0.999,
					cap, cap * (1 + 1e-10), cap * (1 + 1e-9), cap * 1.01,
					-1, math.NaN(), math.Inf(1)}
				for _, w := range ws {
					got := c.Energy(w)
					want := p.Energy(w, d)
					if fastPow && powDrift[name] {
						if got != want && math.Abs(got-want) > 1e-12*math.Abs(want) {
							t.Errorf("%s d=%g fastPow: Curve.Energy(%g) = %v, Proc.Energy = %v", name, d, w, got, want)
						}
						continue
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s d=%g fastPow=%v: Curve.Energy(%g) = %v, Proc.Energy = %v", name, d, fastPow, w, got, want)
					}
				}
				if c.Capacity() != cap {
					t.Errorf("%s d=%g: Capacity = %v, want %v", name, d, c.Capacity(), cap)
				}
				if !c.Fits(cap) || c.Fits(cap*1.01) {
					t.Errorf("%s d=%g: Fits thresholds off", name, d)
				}
			}
		}
	}
}
