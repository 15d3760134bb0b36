// Profile health: the graceful-degradation ledger. A production
// profiler loses samples, sees samplers stall or die, and merges
// incomplete sets of per-thread measurement files; the honest response
// is to keep going, salvage what survives, and account for every loss
// so the analyst can judge how far to trust the numbers. Health is that
// account, populated during collection and rendered by internal/view
// and both CLIs.
package core

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// Health records everything the pipeline lost, repaired, or worked
// around during one profiling run. The zero value means a fully healthy
// run.
type Health struct {
	// Plan is the active fault plan in faults.ParsePlan syntax; empty
	// when no faults were injected.
	Plan string `json:"plan,omitempty"`

	// SamplesFired counts samples the sampler decided to take;
	// SamplesDelivered counts those that reached the profiler. The
	// delivery identity SamplesFired == SamplesDelivered +
	// SamplesDropped + LostToStall + LostToFailure always holds (see
	// Accounted).
	SamplesFired     uint64 `json:"samples_fired,omitempty"`
	SamplesDelivered uint64 `json:"samples_delivered,omitempty"`
	SamplesDropped   uint64 `json:"samples_dropped,omitempty"`
	LostToStall      uint64 `json:"lost_to_stall,omitempty"`
	LostToFailure    uint64 `json:"lost_to_failure,omitempty"`

	// Injected corruption, as reported by the injector.
	InjectedCorruptEA uint64 `json:"injected_corrupt_ea,omitempty"`
	InjectedIPSkid    uint64 `json:"injected_ip_skid,omitempty"`
	InjectedGarbleLat uint64 `json:"injected_garble_lat,omitempty"`

	// Quarantine counters: delivered samples the profiler's validator
	// rejected instead of attributing (and instead of crashing).
	QuarantinedEA      uint64 `json:"quarantined_ea,omitempty"`
	QuarantinedCPU     uint64 `json:"quarantined_cpu,omitempty"`
	QuarantinedIP      uint64 `json:"quarantined_ip,omitempty"`
	QuarantinedLatency uint64 `json:"quarantined_latency,omitempty"`

	// Sampler supervision: stall episodes, restart attempts, and the
	// total simulated time spent backing off between them.
	SamplerStalls  uint64       `json:"sampler_stalls,omitempty"`
	SamplerRetries uint64       `json:"sampler_retries,omitempty"`
	BackoffCycles  units.Cycles `json:"backoff_cycles,omitempty"`

	// Fallback names the replacement mechanism installed after a hard
	// sampler failure (Soft-IBS, the software sampler that needs no
	// PMU); empty if the configured sampler survived. FallbackAt is
	// the simulated time of the switch.
	Fallback   string       `json:"fallback,omitempty"`
	FallbackAt units.Cycles `json:"fallback_at,omitempty"`

	// LPIWindowed reports that lpi_NUMA was estimated from the
	// samples collected before the sampler failed (the fallback
	// mechanism cannot measure latency).
	LPIWindowed bool `json:"lpi_windowed,omitempty"`

	// Per-thread profile coverage for the merge: ThreadsTotal
	// profiles existed, ThreadsLost were missing or unreadable, and
	// the merged tree sums over the survivors only.
	ThreadsTotal int   `json:"threads_total,omitempty"`
	ThreadsLost  []int `json:"threads_lost,omitempty"`

	// FileDamage lists sections a lenient measurement-file load could
	// not recover (filled by profio.LoadLenient, empty for live
	// profiles and clean loads).
	FileDamage []string `json:"file_damage,omitempty"`

	// Early-stop ledger (Config.ConvergeEarly): sampling detached at
	// EarlyStopEpoch (simulated time EarlyStopAt) once the live
	// estimates converged. The run itself completed; the sampled
	// metrics describe the pre-stop window only, and the profile is
	// intentionally not byte-identical to a full-sampling run's.
	EarlyStop      bool         `json:"early_stop,omitempty"`
	EarlyStopEpoch int          `json:"early_stop_epoch,omitempty"`
	EarlyStopAt    units.Cycles `json:"early_stop_at,omitempty"`
}

// Quarantined returns the total number of quarantined samples.
func (h *Health) Quarantined() uint64 {
	return h.QuarantinedEA + h.QuarantinedCPU + h.QuarantinedIP + h.QuarantinedLatency
}

// Degraded reports whether anything at all was lost, quarantined,
// retried, salvaged, or worked around.
func (h *Health) Degraded() bool {
	return h.SamplesDropped > 0 || h.LostToStall > 0 || h.LostToFailure > 0 ||
		h.Quarantined() > 0 || h.SamplerStalls > 0 || h.SamplerRetries > 0 ||
		h.Fallback != "" || len(h.ThreadsLost) > 0 || len(h.FileDamage) > 0 ||
		h.InjectedCorruptEA > 0 || h.InjectedIPSkid > 0 || h.InjectedGarbleLat > 0 ||
		h.EarlyStop
}

// Accounted verifies the delivery identity: every sample the sampler
// fired is either delivered or attributed to a specific loss cause.
func (h *Health) Accounted() bool {
	return h.SamplesFired == h.SamplesDelivered+h.SamplesDropped+h.LostToStall+h.LostToFailure
}

// Summary renders the health block as a short multi-line report; the
// empty string when the run was fully healthy.
func (h *Health) Summary() string {
	if !h.Degraded() {
		return ""
	}
	var b strings.Builder
	b.WriteString("pipeline health: DEGRADED")
	if h.Plan != "" {
		fmt.Fprintf(&b, " (chaos plan %s)", h.Plan)
	}
	b.WriteString("\n")
	if h.SamplesFired > 0 {
		fmt.Fprintf(&b, "  samples: fired %d, delivered %d, dropped %d, lost to stall %d, lost to failure %d",
			h.SamplesFired, h.SamplesDelivered, h.SamplesDropped, h.LostToStall, h.LostToFailure)
		if h.Accounted() {
			b.WriteString("  [all accounted]\n")
		} else {
			b.WriteString("  [ACCOUNTING MISMATCH]\n")
		}
	}
	if q := h.Quarantined(); q > 0 {
		fmt.Fprintf(&b, "  quarantined %d (bad EA %d, bad CPU %d, bad IP %d, bad latency %d)\n",
			q, h.QuarantinedEA, h.QuarantinedCPU, h.QuarantinedIP, h.QuarantinedLatency)
	}
	if h.SamplerStalls > 0 || h.SamplerRetries > 0 {
		fmt.Fprintf(&b, "  sampler stalls %d, retries %d, backoff %d cycles\n",
			h.SamplerStalls, h.SamplerRetries, uint64(h.BackoffCycles))
	}
	if h.Fallback != "" {
		fmt.Fprintf(&b, "  sampler hard failure: fell back to %s at cycle %d\n",
			h.Fallback, uint64(h.FallbackAt))
	}
	if h.LPIWindowed {
		b.WriteString("  lpi_NUMA estimated from the pre-failure sample window\n")
	}
	if len(h.ThreadsLost) > 0 {
		fmt.Fprintf(&b, "  thread coverage %d/%d (lost profiles: %v)\n",
			h.ThreadsTotal-len(h.ThreadsLost), h.ThreadsTotal, h.ThreadsLost)
	}
	for _, d := range h.FileDamage {
		fmt.Fprintf(&b, "  measurement file: %s\n", d)
	}
	if h.EarlyStop {
		fmt.Fprintf(&b, "  sampling stopped at convergence (epoch %d, cycle %d); metrics cover the converged window\n",
			h.EarlyStopEpoch, uint64(h.EarlyStopAt))
	}
	return b.String()
}
