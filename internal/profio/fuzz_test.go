package profio

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
	"repro/internal/units"
)

// FuzzLoadLenient drives both loaders with arbitrary bytes. The
// contract under fuzzing: neither loader may panic or hang, whatever
// the input — a measurement file is untrusted data (networked
// filesystems truncate, bit-rot flips, other tools scribble). A
// successful lenient load must additionally return a usable profile
// and a coherent report.
func FuzzLoadLenient(f *testing.F) {
	// A compact profile (no timeline, coarse period) keeps the corpus
	// small enough for the mutator to make progress.
	m := topology.New(topology.Config{
		Name: "fuzz-m", NumDomains: 2, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
	prof, err := core.Analyze(core.Config{
		Machine: m, Mechanism: "IBS", Period: 512,
	}, newDemoApp())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, prof); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(faults.Truncate(valid, 0.6))
	f.Add(faults.Truncate(valid, 0.05))
	f.Add(faults.FlipBits(valid, 0.001, 7))
	f.Add([]byte(magicV2 + "\n"))
	f.Add([]byte(magicV2 + "\n{\"section\":\"meta\",\"crc\":0,\"body\":{}}\n"))
	if doc, err := Encode(prof); err == nil {
		doc.Version = 1
		if v1, err := json.Marshal(doc); err == nil {
			f.Add(v1)
		}
	}
	f.Add([]byte("{}"))
	f.Add([]byte("not a profile"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Strict: error or success, never a panic.
		Load(bytes.NewReader(data))

		prof, rep, err := LoadLenient(bytes.NewReader(data))
		if err != nil {
			return
		}
		if prof == nil || rep == nil {
			t.Fatal("lenient success must return a profile and a report")
		}
		if prof.Machine == nil || prof.Tree == nil || prof.Registry == nil {
			t.Fatal("salvaged profile missing core structures")
		}
		if !rep.Clean() && len(prof.Health.FileDamage) == 0 {
			t.Fatal("damage reported but not recorded in Health")
		}
		// A salvaged profile must itself survive a save/load cycle.
		var out bytes.Buffer
		if err := Save(&out, prof); err != nil {
			t.Fatalf("salvaged profile does not re-save: %v", err)
		}
		if _, err := Load(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-saved salvage does not load: %v", err)
		}
	})
}

// FuzzSectionBody feeds arbitrary bytes to the section decoders behind
// a valid checksum: the body replaces one section of an otherwise valid
// file and the record's CRC is recomputed, so damage reaches the body
// decoders instead of stopping at the checksum as in FuzzLoadLenient.
// Neither loader may panic, strict Load must fail exactly when the
// lenient report is not clean, and whatever Load accepts the reference
// decoder must accept too and re-encode to the same bytes.
func FuzzSectionBody(f *testing.F) {
	m := topology.New(topology.Config{
		Name: "fuzz-m", NumDomains: 2, CPUsPerDomain: 2,
		MemoryPerDomain: units.GiB, RemoteDistance: 16,
	})
	prof, err := core.Analyze(core.Config{
		Machine: m, Mechanism: "IBS", Period: 512, TrackFirstTouch: true, Trace: true,
	}, newDemoApp())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, prof); err != nil {
		f.Fatal(err)
	}
	base := buf.Bytes()
	for _, name := range sectionNames {
		f.Add(name, sectionBody(f, base, name))
	}

	f.Fuzz(func(t *testing.T, section string, body []byte) {
		if !slices.Contains(sectionNames[:], section) {
			return
		}
		file := withSection(t, base, section, body)
		p, strictErr := Load(bytes.NewReader(file))
		_, rep, err := LoadLenient(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("lenient load failed on a file with a valid magic line: %v", err)
		}
		if (strictErr == nil) != rep.Clean() {
			t.Fatalf("strict err %v but lenient report %+v", strictErr, rep)
		}
		if strictErr != nil {
			return
		}
		ref, err := refLoad(file)
		if err != nil {
			t.Fatalf("Load accepted what the reference decoder rejects: %v", err)
		}
		var got, want bytes.Buffer
		if err := Save(&got, p); err != nil {
			t.Fatal(err)
		}
		if err := Save(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("Load and the reference decoder re-encode differently")
		}
	})
}
