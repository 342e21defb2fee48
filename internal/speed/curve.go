package speed

import (
	"math"

	"dvsreject/internal/power"
)

// Curve is the energy curve E(w) of one processor over a fixed frame
// length, precomputed for repeated probing. It is the single fast E(w) of
// the repository: every solver — the single-processor rejection solvers
// through core's evaluation context, the multiprocessor and heterogeneous
// tiers per processor — builds one Curve per solve instead of paying
// Proc.Assign's validation and candidate enumeration on every probe.
//
// Exactness contract: Energy(w) reproduces Proc.Energy(w, d) bit for bit.
// On continuous-speed dormant-disable processors it mirrors the float
// operation sequence of Proc.assignContinuous exactly (same checks, same
// clamping, same order of arithmetic). On discrete-ladder processors it
// mirrors Proc.assignDiscrete with the per-level power draws memoized in
// a power.PdTable — each level's P(s) is computed once through the same
// Pind + Pd(s) sum and reused, so every probe returns the identical bits
// without the per-level math.Pow. Every other flavour falls back to
// Proc.Energy itself. The one opt-out is fastPow (see NewCurve), which
// trades the last ulp of s^α for integer multiplies. The zero Curve is not
// usable; construct with NewCurve.
type Curve struct {
	proc     Proc
	deadline float64

	fast       bool    // closed continuous-speed form applies
	fastPow    bool    // pow multiplies instead of math.Pow (α ∈ {2, 3})
	capSlack   float64 // capacity·(1+feasibilitySlack)
	smin, smax float64
	pind       float64 // static power Pind
	coeff      float64 // dynamic power coefficient
	alpha      float64 // dynamic power exponent
	idleTotal  float64 // energy of an entirely idle frame, Pind·d

	fastDiscrete bool // memoized discrete-ladder form applies
	levels       power.LevelSet
	pd           power.PdTable // Pd(s) per level, seeded once
	dormant      bool
	esw          float64
	idleFrame    float64 // energy of an entirely idle frame, idleCost(d)
}

// NewCurve builds the curve for workloads executed within a frame of
// length d on p. The processor and frame length must already be valid (as
// Proc.Energy assumes); invalid workloads still price to +Inf. Discrete
// processors seed a fresh Pd table.
//
// fastPow (core.Instance.FastPow) routes the closed continuous form's s^α
// through integer multiplies when α is 2 or 3. The products can differ
// from math.Pow in the final ulp, so the bit-identity contract holds only
// with fastPow off; every other flavour ignores it.
func NewCurve(p Proc, d float64, fastPow bool) Curve {
	m := p.Model
	c := Curve{
		proc:      p,
		deadline:  d,
		fast:      p.Levels == nil && !p.DormantEnable,
		capSlack:  p.Capacity(d) * (1 + feasibilitySlack),
		smin:      p.SMin,
		smax:      p.SMax,
		pind:      m.Static(),
		coeff:     m.Coeff,
		alpha:     m.Alpha,
		idleTotal: m.Static() * d,
	}
	c.fastPow = fastPow && c.fast && (m.Alpha == 2 || m.Alpha == 3)
	if p.Levels != nil {
		c.fastDiscrete = true
		c.levels = p.Levels
		c.pd = power.NewPdTable(m, p.Levels)
		c.dormant = p.DormantEnable
		c.esw = p.Esw
		c.idleFrame, _ = p.idleCost(d)
	}
	return c
}

// Capacity returns the largest schedulable workload smax·d.
func (c *Curve) Capacity() float64 { return c.proc.Capacity(c.deadline) }

// Fits reports whether a workload of w cycles is schedulable, with the
// same float slack Proc.Assign applies.
func (c *Curve) Fits(w float64) bool { return w <= c.capSlack }

// Monotone reports whether E(w) is known non-decreasing in w: true on the
// closed continuous dormant-disable form (convex or not), false on
// discrete ladders and dormant-enable break-even plateaus.
func (c *Curve) Monotone() bool { return c.fast }

// Dynamic returns the dynamic power Coeff·s^α — the term the closed
// continuous form charges, and the numerator of core's heterogeneous
// surrogate. s^α is math.Pow unless the curve was built with fastPow.
func (c *Curve) Dynamic(s float64) float64 {
	if c.fastPow {
		if c.alpha == 3 {
			return c.coeff * (s * s * s)
		}
		return c.coeff * (s * s)
	}
	return c.coeff * math.Pow(s, c.alpha)
}

// Energy returns E(w) = Proc.Energy(w, deadline), +Inf when infeasible.
func (c *Curve) Energy(w float64) float64 {
	if c.fast {
		// w != w catches NaN, w < 0 catches -Inf, the capacity check catches
		// +Inf — the same rejections Proc.Assign makes.
		if w < 0 || w != w {
			return math.Inf(1)
		}
		if w > c.capSlack {
			return math.Inf(1)
		}
		if w == 0 {
			return c.idleTotal
		}
		// Proc.assignContinuous, dormant-disable branch: run at the slowest
		// deadline- and hardware-feasible speed. The branches compute the same
		// values as the math.Min(math.Max(·)) clamp there — the operands are
		// never NaN and never signed zeros of opposite sign.
		s := w / c.deadline
		if s < c.smin {
			s = c.smin
		}
		if s > c.smax {
			s = c.smax
		}
		exec := w / s
		var dyn float64
		if s > 0 {
			dyn = c.Dynamic(s)
		}
		return (c.pind+dyn)*exec + c.pind*(c.deadline-exec)
	}
	if c.fastDiscrete {
		return c.energyDiscrete(w)
	}
	return c.proc.Energy(w, c.deadline)
}

// energyDiscrete mirrors Proc.assignDiscrete (and Assign's surrounding
// checks) with the per-level powers read from the memo table: the same
// candidates in the same order, the same slack comparisons, the same
// ExecEnergy + IdleEnergy summation order, so the minimum and its
// tie-breaks are bit-identical to Proc.Energy.
func (c *Curve) energyDiscrete(w float64) float64 {
	if w < 0 || w != w {
		return math.Inf(1)
	}
	if w > c.capSlack {
		return math.Inf(1)
	}
	if w == 0 {
		return c.idleFrame
	}
	d := c.deadline
	best := math.Inf(1)

	ideal := w / d
	if lo, hi, ok := c.levels.Bracket(ideal); ok && lo != hi {
		// Split: tLo·lo + tHi·hi = w, tLo + tHi = d; no idle time.
		tHi := (w - lo*d) / (hi - lo)
		tLo := d - tHi
		if tHi >= -feasibilitySlack && tLo >= -feasibilitySlack {
			tHi = math.Max(tHi, 0)
			tLo = math.Max(tLo, 0)
			if total := (c.levelPower(lo)*tLo + c.levelPower(hi)*tHi) + 0; total < best {
				best = total
			}
		}
	}

	for i, s := range c.levels {
		if s*d < w*(1-feasibilitySlack) {
			continue // level alone cannot meet the deadline
		}
		exec := w / s
		if exec > d {
			exec = d
		}
		total := (c.pind + c.pd.At(i)) * exec
		total += c.idleCost(d - exec)
		if total < best {
			best = total
		}
	}
	return best
}

// levelPower returns P(s) = Pind + Pd(s) for a grid speed, from the memo
// table — the same sum Model.Power computes, with Pd read instead of
// recomputed. Off-grid speeds cannot occur (Bracket returns grid values);
// the fallback keeps the function total.
func (c *Curve) levelPower(s float64) float64 {
	if pd, ok := c.pd.Lookup(s); ok {
		return c.pind + pd
	}
	return c.proc.Model.Power(s)
}

// idleCost mirrors Proc.idleCost on the cached scalars.
func (c *Curve) idleCost(dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	awake := c.pind * dur
	if c.dormant && c.esw < awake {
		return c.esw
	}
	return awake
}
