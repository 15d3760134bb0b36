// Package isa represents a simulated program binary: its functions,
// source coordinates, memory-access sites (synthetic instruction
// pointers), and static variables with their symbol-table sizes.
//
// HPCToolkit accepts "a compiled binary executable ... compiled by any
// compiler" (Section 7). Our equivalent of that binary is a Program: a
// registry the workload builds once, giving every function a name and
// source file and every load/store/allocation instruction a stable
// SiteID that plays the role of the instruction pointer in address
// samples. The profiler maps SiteIDs back to source coordinates for
// code-centric attribution, and reads the static-variable symbol table
// for data-centric attribution, just as hpcrun reads ELF symbols.
//
// # Concurrency
//
// A Program is append-only while the workload constructs it (AddFunc,
// AddSite, AddStatic) and strictly read-only once Run begins — exactly
// like the ELF binary it stands in for. The experiment scheduler
// (internal/sched) relies on this: concurrent sweep cells may share one
// Program as long as construction finished before the first cell
// starts, and internal/core's race tests run eight cells against a
// shared Program under -race to keep the contract honest. Mutating a
// Program after handing it to a running cell is a data race.
package isa

import "fmt"

// FuncID identifies a function within a Program.
type FuncID int32

// SiteID identifies one instruction site (a load, store, allocation, or
// call site) within a Program. SiteIDs are dense and ordered by
// registration, which stands in for instruction addresses: SiteID+1 is
// "the next instruction", the relationship PEBS's off-by-one
// attribution perturbs (Section 8).
type SiteID int32

// NoSite marks the absence of an instruction site.
const NoSite SiteID = -1

// NoFunc marks the absence of a function.
const NoFunc FuncID = -1

// SiteKind classifies an instruction site.
type SiteKind uint8

// Site kinds.
const (
	KindLoad SiteKind = iota
	KindStore
	KindAlloc
	KindCall
)

// String names the kind.
func (k SiteKind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindAlloc:
		return "alloc"
	case KindCall:
		return "call"
	default:
		return fmt.Sprintf("SiteKind(%d)", uint8(k))
	}
}

// Function is one routine in the simulated binary.
type Function struct {
	ID   FuncID
	Name string
	File string
	// StartLine is the line of the function definition.
	StartLine int
}

// Site is one instruction location.
type Site struct {
	ID   SiteID
	Fn   FuncID
	Line int
	Kind SiteKind
}

// StaticVar is a statically allocated variable from the symbol table.
type StaticVar struct {
	Name string
	Size uint64
}

// Program is the simulated binary's static description.
type Program struct {
	Name    string
	funcs   []Function
	sites   []Site
	statics []StaticVar
}

// NewProgram creates an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name}
}

// AddFunc registers a function and returns its id.
func (p *Program) AddFunc(name, file string, startLine int) FuncID {
	id := FuncID(len(p.funcs))
	p.funcs = append(p.funcs, Function{ID: id, Name: name, File: file, StartLine: startLine})
	return id
}

// AddSite registers an instruction site in fn at the given source line
// and returns its id.
func (p *Program) AddSite(fn FuncID, line int, kind SiteKind) SiteID {
	id := SiteID(len(p.sites))
	p.sites = append(p.sites, Site{ID: id, Fn: fn, Line: line, Kind: kind})
	return id
}

// AddStatic registers a static variable of the given size and returns
// its symbol index.
func (p *Program) AddStatic(name string, size uint64) int {
	p.statics = append(p.statics, StaticVar{Name: name, Size: size})
	return len(p.statics) - 1
}

// Func returns the function with the given id.
func (p *Program) Func(id FuncID) (Function, bool) {
	if id < 0 || int(id) >= len(p.funcs) {
		return Function{}, false
	}
	return p.funcs[id], true
}

// Site returns the site with the given id.
func (p *Program) Site(id SiteID) (Site, bool) {
	if id < 0 || int(id) >= len(p.sites) {
		return Site{}, false
	}
	return p.sites[id], true
}

// PrevSite returns the site preceding id in registration (instruction)
// order, the correction hpcrun performs for PEBS's off-by-one
// attribution by analysing the binary for the previous instruction.
func (p *Program) PrevSite(id SiteID) (Site, bool) {
	return p.Site(id - 1)
}

// Funcs returns all functions. The slice must not be mutated.
func (p *Program) Funcs() []Function { return p.funcs }

// Sites returns all sites. The slice must not be mutated.
func (p *Program) Sites() []Site { return p.sites }

// Statics returns the static-variable symbol table. The slice must not
// be mutated.
func (p *Program) Statics() []StaticVar { return p.statics }

// NumSites returns the number of registered sites.
func (p *Program) NumSites() int { return len(p.sites) }

// SourceOf formats the source coordinate of a site as "file:line
// (function)", the form the viewer displays.
func (p *Program) SourceOf(id SiteID) string {
	s, ok := p.Site(id)
	if !ok {
		return "<unknown>"
	}
	f, ok := p.Func(s.Fn)
	if !ok {
		return fmt.Sprintf("<bad func>:%d", s.Line)
	}
	return fmt.Sprintf("%s:%d (%s)", f.File, s.Line, f.Name)
}
