// Package profio serialises profiles to a versioned measurement format
// and loads them back, reproducing the file-based architecture of the
// real tool (Section 7): hpcrun writes per-execution measurement
// databases, and hpcprof/hpcviewer consume them offline — possibly on a
// different machine, long after the run.
//
// Format v2 is sectioned and checksummed: a magic first line followed
// by one JSON record per line, each carrying a section name, the
// CRC32 (IEEE) of its body, and the body itself. Sections are written
// in a fixed order (meta, binary, vars, tree, patterns, timeline), so a
// file truncated mid-write loses only its tail, and a bit-flip is
// confined to the section it lands in. Two loaders consume the format:
//
//   - Load is strict: any checksum mismatch, unparseable line, or
//     missing core section rejects the whole file. Use it when a wrong
//     answer is worse than no answer.
//   - LoadLenient salvages: it recovers every section that is intact,
//     synthesises placeholders for what is lost, and returns a
//     structured Report of the damage, which is also folded into the
//     profile's Health block so every view shows the degradation.
//
// Version-1 files (a single JSON document, no checksums) are still
// readable by both loaders.
//
// Save captures everything a viewer needs: the program description
// (functions, sites, statics), the merged augmented CCT with metric
// columns and per-thread [min,max] ranges, the per-variable
// data-centric profiles with bins and first-touch results, the
// address-centric patterns per scope, totals, the pipeline health
// ledger, and (when traced) the time-stamped sample list. Load
// reconstructs a core.Profile that every view renders identically to
// the live one.
//
// Each direction has one code path. Save (encoder.go) writes the tree
// and patterns sections by hand and the small sections through
// encoding/json. Both loaders share one decoder (decode.go) that decodes
// every section body once: the package's own JSON reader (jsonread.go)
// splits each record and reads the tree and patterns bodies straight
// into cct nodes and address-centric patterns, and the small sections
// go through encoding/json. The Document-shaped codec both replaced
// lives on in the package's tests as the differential reference.
package profio

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datacentric"
	"repro/internal/isa"
	"repro/internal/pmu"
	"repro/internal/proc"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/vm"
)

// FormatVersion identifies the measurement-file schema.
const FormatVersion = 2

// magicV2 is the first line of a v2 measurement file. Version-1 files
// start with '{' instead, which is how the loaders tell them apart.
const magicV2 = "#numaprof-measurement-v2"

// Section names, in the order Save writes them. The core sections are
// required by the strict loader; timeline is optional (written only
// when the run was traced).
const (
	SectionMeta     = "meta"
	SectionBinary   = "binary"
	SectionVars     = "vars"
	SectionTree     = "tree"
	SectionPatterns = "patterns"
	SectionTimeline = "timeline"
)

// metaDoc is the v2 meta section: everything small enough to want
// first, so a tail-truncated file still identifies itself.
type metaDoc struct {
	Version   int             `json:"version"`
	App       string          `json:"app"`
	Machine   topology.Config `json:"machine"`
	Mechanism string          `json:"mechanism"`
	Period    uint64          `json:"period"`
	HasFT     bool            `json:"has_first_touch"`
	Totals    core.Totals     `json:"totals"`
	Health    core.Health     `json:"health"`
}

// BinaryDoc is the serialised program description.
type BinaryDoc struct {
	Name    string          `json:"name"`
	Funcs   []isa.Function  `json:"funcs"`
	Sites   []isa.Site      `json:"sites"`
	Statics []isa.StaticVar `json:"statics"`
}

// FrameDoc is one serialised call-path frame.
type FrameDoc struct {
	Fn   isa.FuncID `json:"fn"`
	Line int        `json:"line"`
}

// VarDoc is one variable's serialised data-centric profile.
type VarDoc struct {
	Name        string              `json:"name"`
	Kind        datacentric.VarKind `json:"kind"`
	Region      vm.Region           `json:"region"`
	AllocPath   []FrameDoc          `json:"alloc_path,omitempty"`
	AllocSite   isa.SiteID          `json:"alloc_site"`
	AllocThread int                 `json:"alloc_thread"`
	BinCount    int                 `json:"bin_count"`

	Samples   float64         `json:"samples"`
	Ml        float64         `json:"ml"`
	Mr        float64         `json:"mr"`
	PerDomain []float64       `json:"per_domain"`
	Latency   units.Cycles    `json:"latency"`
	RemoteLat units.Cycles    `json:"remote_lat"`
	LPI       float64         `json:"lpi"`
	RLatShare float64         `json:"rlat_share"`
	MrShare   float64         `json:"mr_share"`
	Bins      []core.BinStats `json:"bins,omitempty"`

	FirstTouchThreads []int      `json:"ft_threads,omitempty"`
	FirstTouchPath    []FrameDoc `json:"ft_path,omitempty"`
	ProtectedPages    int        `json:"ft_pages,omitempty"`
}

// Report is the structured outcome of a lenient load: which sections
// survived, which were damaged or missing, and what had to be
// synthesised to keep going.
type Report struct {
	// Version is the format version announced by the file (0 when even
	// that could not be recovered).
	Version int
	// Intact lists sections recovered with matching checksums.
	Intact []string
	// Corrupt lists damage found: checksum mismatches, unparseable
	// lines (the signature of truncation mid-record), undecodable
	// bodies.
	Corrupt []string
	// Missing lists core sections absent from the file — the signature
	// of truncation at a section boundary.
	Missing []string
	// Synthesized lists placeholders invented for lost state (e.g. a
	// 1-domain machine when the meta section is gone).
	Synthesized []string
}

// Clean reports whether the file loaded with no damage at all.
func (r *Report) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Missing) == 0 && len(r.Synthesized) == 0
}

// Damage flattens the report into the strings core.Health carries as
// FileDamage; nil when clean.
func (r *Report) Damage() []string {
	var out []string
	for _, c := range r.Corrupt {
		out = append(out, "corrupt: "+c)
	}
	for _, m := range r.Missing {
		out = append(out, "missing section: "+m)
	}
	for _, s := range r.Synthesized {
		out = append(out, "synthesized: "+s)
	}
	return out
}

// Summary renders the report for the CLI.
func (r *Report) Summary() string {
	var b strings.Builder
	if r.Clean() {
		fmt.Fprintf(&b, "measurement file clean (v%d, sections: %s)", r.Version, strings.Join(r.Intact, ", "))
		return b.String()
	}
	fmt.Fprintf(&b, "measurement file damaged (v%d)\n", r.Version)
	fmt.Fprintf(&b, "  recovered: %s\n", strings.Join(r.Intact, ", "))
	for _, d := range r.Damage() {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}

func encodeFrames(path []proc.Frame) []FrameDoc {
	out := make([]FrameDoc, 0, len(path))
	for _, fr := range path {
		out = append(out, FrameDoc{Fn: fr.Fn, Line: fr.CallLine})
	}
	return out
}

func decodeFrames(docs []FrameDoc) []proc.Frame {
	out := make([]proc.Frame, 0, len(docs))
	for _, fr := range docs {
		out = append(out, proc.Frame{Fn: fr.Fn, CallLine: fr.Line})
	}
	return out
}

func encodeVar(v *core.VarProfile) VarDoc {
	return VarDoc{
		Name:        v.Var.Name,
		Kind:        v.Var.Kind,
		Region:      v.Var.Region,
		AllocPath:   encodeFrames(v.Var.AllocPath),
		AllocSite:   v.Var.AllocSite,
		AllocThread: v.Var.AllocThread,
		BinCount:    v.Var.Bins,

		Samples:   v.Samples,
		Ml:        v.Ml,
		Mr:        v.Mr,
		PerDomain: v.PerDomain,
		Latency:   v.Latency,
		RemoteLat: v.RemoteLat,
		LPI:       v.LPI,
		RLatShare: v.RemoteLatShare,
		MrShare:   v.MrShare,
		Bins:      v.Bins,

		FirstTouchThreads: v.FirstTouchThreads,
		FirstTouchPath:    encodeFrames(v.FirstTouchPath),
		ProtectedPages:    v.ProtectedPages,
	}
}

// maxSaneDomains and maxSaneCPUs bound the machine description a
// loaded file may request, so a corrupted (or fuzzed) meta section
// cannot make topology.New allocate gigabytes — or merely burn
// hundreds of milliseconds per load building a machine no profile
// this tool writes could describe. maxSaneCPUs bounds the TOTAL CPU
// count (domains x cpus-per-domain): the per-CPU structures dominate
// the allocation cost.
const (
	maxSaneDomains = 1 << 8
	maxSaneCPUs    = 1 << 12
)

// validateMachine mirrors topology.New's panic conditions (plus sanity
// bounds) as a returnable error, because a measurement file is
// untrusted input where the machine description is static trusted data.
func validateMachine(cfg topology.Config) error {
	if cfg.NumDomains <= 0 || cfg.CPUsPerDomain <= 0 {
		return fmt.Errorf("non-positive domain or CPU count (%d domains x %d cpus)", cfg.NumDomains, cfg.CPUsPerDomain)
	}
	if cfg.NumDomains > maxSaneDomains || cfg.CPUsPerDomain > maxSaneCPUs ||
		cfg.NumDomains*cfg.CPUsPerDomain > maxSaneCPUs {
		return fmt.Errorf("implausible machine size (%d domains x %d cpus)", cfg.NumDomains, cfg.CPUsPerDomain)
	}
	if cfg.RemoteDistance < 0 {
		return fmt.Errorf("negative remote distance %d", cfg.RemoteDistance)
	}
	if cfg.Distances != nil {
		if len(cfg.Distances) != cfg.NumDomains {
			return fmt.Errorf("distance matrix has %d rows, want %d", len(cfg.Distances), cfg.NumDomains)
		}
		for i := range cfg.Distances {
			if len(cfg.Distances[i]) != cfg.NumDomains {
				return fmt.Errorf("distance row %d has %d entries, want %d", i, len(cfg.Distances[i]), cfg.NumDomains)
			}
			for j, d := range cfg.Distances[i] {
				switch {
				case i == j && d != 10:
					return fmt.Errorf("diagonal distance [%d][%d] = %d, want 10", i, j, d)
				case i != j && d <= 10:
					return fmt.Errorf("off-diagonal distance [%d][%d] = %d, want > 10", i, j, d)
				case cfg.Distances[j][i] != d:
					return fmt.Errorf("asymmetric distance [%d][%d]", i, j)
				}
			}
		}
	}
	return nil
}

// salvageMachine is the placeholder topology a lenient load installs
// when the file's machine description is lost or invalid.
func salvageMachine() topology.Config {
	return topology.Config{
		Name:            "<salvaged-1-domain>",
		NumDomains:      1,
		CPUsPerDomain:   1,
		MemoryPerDomain: 1 << 30,
	}
}

// capsFor resolves the capability matrix for the mechanism recorded in
// the file; unknown mechanisms (from newer tools) get empty caps rather
// than failing the load.
func capsFor(name string) (pmu.Capability, error) {
	mech, err := pmu.ByName(name, 0)
	if err != nil {
		return pmu.Capability{}, nil
	}
	return mech.Caps(), nil
}
