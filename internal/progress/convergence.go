package progress

import "math"

// Convergence defaults: both quotients must move less than
// DefaultEpsilon (relative) across DefaultWindow consecutive snapshots.
const (
	DefaultEpsilon = 0.02
	DefaultWindow  = 3
)

// Detector flags convergence of a run's NUMA quotients across its
// snapshot stream: when the relative change of both the lpi_NUMA
// estimate and the remote fraction M_r/(M_l+M_r) stays below Epsilon
// for Window consecutive snapshots, the estimates are declared
// converged — the signal behind event annotations and the
// converge-early sampling stop. The zero value is ready to use with
// the defaults. Not safe for concurrent use; each run owns one.
type Detector struct {
	// Epsilon is the relative-change tolerance (0: DefaultEpsilon).
	Epsilon float64
	// Window is the required consecutive-stable streak (0:
	// DefaultWindow).
	Window int

	streak  int
	has     bool
	prevRF  float64
	prevLPI float64
	prevOK  bool
}

func (d *Detector) epsilon() float64 {
	if d.Epsilon > 0 {
		return d.Epsilon
	}
	return DefaultEpsilon
}

func (d *Detector) window() int {
	if d.Window > 0 {
		return d.Window
	}
	return DefaultWindow
}

// Observe folds one snapshot into the detector and annotates it with
// the verdict: Converged once the stable streak covers the full
// window, Confidence = streak/window (capped at 1) on the way there.
// Snapshots with no samples yet reset the streak — an idle profiler's
// estimates are trivially stable and must not count as converged.
func (d *Detector) Observe(s *Snapshot) {
	stable := false
	if d.has && s.Samples > 0 {
		dRF := relChange(d.prevRF, s.RemoteFraction)
		var dLPI float64
		switch {
		case s.LPIValid && d.prevOK:
			dLPI = relChange(d.prevLPI, s.LPI)
		case !s.LPIValid && !d.prevOK:
			// No estimator for this mechanism: converge on the
			// remote-fraction quotient alone.
			dLPI = 0
		default:
			// Estimator validity flipped mid-stream — not stable.
			dLPI = 1
		}
		stable = dRF <= d.epsilon() && dLPI <= d.epsilon()
	}
	if stable {
		d.streak++
	} else {
		d.streak = 0
	}
	if s.Samples > 0 {
		d.has = true
		d.prevRF = s.RemoteFraction
		d.prevLPI = s.LPI
		d.prevOK = s.LPIValid
	}
	k := d.window()
	s.Converged = d.streak >= k
	s.Confidence = float64(d.streak) / float64(k)
	if s.Confidence > 1 {
		s.Confidence = 1
	}
}

// relChange is |a-b| relative to the larger magnitude; 0 when both
// vanish.
func relChange(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
