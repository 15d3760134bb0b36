package progress

import "testing"

func observe(d *Detector, samples, rf, lpi float64, valid bool) *Snapshot {
	s := &Snapshot{Samples: samples, RemoteFraction: rf, LPI: lpi, LPIValid: valid}
	d.Observe(s)
	return s
}

func TestDetectorConvergesAfterWindow(t *testing.T) {
	var d Detector // defaults: eps 0.02, window 3
	// First observation has nothing to compare against.
	if s := observe(&d, 100, 0.40, 2.0, true); s.Converged || s.Confidence != 0 {
		t.Fatalf("first snapshot converged: %+v", s)
	}
	// Three consecutive stable deltas build the streak to the window.
	var s *Snapshot
	for i := 0; i < 3; i++ {
		s = observe(&d, 100+float64(i), 0.401, 2.001, true)
	}
	if !s.Converged || s.Confidence != 1 {
		t.Fatalf("not converged after stable window: %+v", s)
	}
	// Confidence ramps: a fresh detector reports 1/3 after one stable
	// pair.
	var d2 Detector
	observe(&d2, 50, 0.3, 1.0, true)
	s2 := observe(&d2, 60, 0.3, 1.0, true)
	if s2.Converged {
		t.Error("converged after a single stable delta")
	}
	if got, want := s2.Confidence, 1.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("confidence %g, want %g", got, want)
	}
}

func TestDetectorResetsOnJump(t *testing.T) {
	var d Detector
	observe(&d, 10, 0.40, 2.0, true)
	observe(&d, 20, 0.40, 2.0, true)
	observe(&d, 30, 0.40, 2.0, true)
	// A >2% move in either quotient resets the streak.
	s := observe(&d, 40, 0.50, 2.0, true)
	if s.Converged || s.Confidence != 0 {
		t.Fatalf("streak survived a remote-fraction jump: %+v", s)
	}
	observe(&d, 50, 0.50, 2.0, true)
	observe(&d, 60, 0.50, 2.0, true)
	s = observe(&d, 70, 0.50, 2.6, true)
	if s.Converged {
		t.Fatal("streak survived an LPI jump")
	}
}

func TestDetectorIgnoresEmptySnapshots(t *testing.T) {
	var d Detector
	// An idle profiler's estimates are trivially stable — zero-sample
	// snapshots must never converge, and must reset any streak.
	var s *Snapshot
	for i := 0; i < 10; i++ {
		s = observe(&d, 0, 0, 0, false)
	}
	if s.Converged || s.Confidence != 0 {
		t.Fatalf("converged on empty snapshots: %+v", s)
	}
	observe(&d, 10, 0.4, 2.0, true)
	observe(&d, 20, 0.4, 2.0, true)
	s = observe(&d, 20, 0.4, 2.0, true)
	if s.Confidence == 0 {
		t.Fatal("stable sampled snapshots did not build a streak")
	}
}

func TestDetectorValidityFlip(t *testing.T) {
	var d Detector
	observe(&d, 10, 0.4, 2.0, true)
	observe(&d, 20, 0.4, 2.0, true)
	// The estimator flipping to invalid is not stability.
	s := observe(&d, 30, 0.4, 0, false)
	if s.Confidence != 0 {
		t.Fatalf("validity flip counted as stable: %+v", s)
	}
}

func TestDetectorNoEstimatorConvergesOnQuotient(t *testing.T) {
	d := Detector{Window: 2}
	// Latency-less mechanisms never produce a valid LPI; the
	// remote-fraction quotient alone decides.
	observe(&d, 10, 0.25, 0, false)
	observe(&d, 20, 0.25, 0, false)
	s := observe(&d, 30, 0.251, 0, false)
	if !s.Converged {
		t.Fatalf("quotient-only convergence not reached: %+v", s)
	}
}

func observeAt(d *Detector, epoch int, samples, rf, lpi float64, valid bool) *Snapshot {
	s := &Snapshot{Epoch: epoch, Samples: samples, RemoteFraction: rf, LPI: lpi, LPIValid: valid}
	d.Observe(s)
	return s
}

func TestDetectorFinalSnapshotMidStrideIsNotAGap(t *testing.T) {
	var d Detector
	observeAt(&d, 2, 10, 0.4, 2.0, true)
	observeAt(&d, 4, 20, 0.4, 2.0, true)
	observeAt(&d, 6, 30, 0.4, 2.0, true)
	s := observeAt(&d, 8, 40, 0.4, 2.0, true)
	if !s.Converged {
		t.Fatalf("stable cadenced stream did not converge: %+v", s)
	}
	// The closing snapshot lands one epoch past the last periodic one;
	// its quotients are unchanged, so convergence holds.
	s = observeAt(&d, 9, 41, 0.4, 2.0, true)
	if !s.Converged {
		t.Fatalf("mid-stride final snapshot treated as a gap: %+v", s)
	}
}

func TestDetectorCustomEpsilonWindow(t *testing.T) {
	d := Detector{Epsilon: 0.5, Window: 1}
	observe(&d, 10, 0.2, 1.0, true)
	s := observe(&d, 20, 0.28, 1.3, true)
	if !s.Converged {
		t.Fatalf("loose epsilon did not converge: %+v", s)
	}
}
