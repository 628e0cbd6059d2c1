package campaign

import (
	"sort"
	"sync"
)

// CellProgress is the live completion state of one (scenario, impairment,
// technique) cell of the campaign matrix. Errors counts runs that ended in
// an error record.
type CellProgress struct {
	Scenario   string `json:"scenario"`
	Impairment string `json:"impairment,omitempty"`
	Technique  string `json:"technique"`
	Planned    int    `json:"planned"`
	Done       int    `json:"done"`
	Correct    int    `json:"correct"`
	Errors     int    `json:"errors"`
}

// ProgressSnapshot is a point-in-time view of campaign completion, the JSON
// body served by the -metrics-addr /progress endpoint.
type ProgressSnapshot struct {
	Planned int            `json:"planned"`
	Done    int            `json:"done"`
	Errors  int            `json:"errors"`
	Cells   []CellProgress `json:"cells"`
}

// Progress tracks live campaign completion per cell. Record is safe to call
// from multiple workers; wire it into Options.OnRecord alongside the sink.
type Progress struct {
	mu    sync.Mutex
	cells map[[3]string]*CellProgress
	total int
	done  int
	errs  int
}

// NewProgress enumerates the plan's cells so the snapshot shows planned
// totals from the start, not only cells that have completed runs.
func NewProgress(plan *Plan) *Progress {
	p := &Progress{cells: make(map[[3]string]*CellProgress)}
	if plan == nil {
		return p
	}
	for _, spec := range plan.Specs {
		p.total++
		imp := recordImpairment(spec.Impairment)
		k := [3]string{spec.Scenario, imp, spec.Technique}
		c, ok := p.cells[k]
		if !ok {
			c = &CellProgress{Scenario: spec.Scenario, Impairment: imp, Technique: spec.Technique}
			p.cells[k] = c
		}
		c.Planned++
	}
	return p
}

// Record folds one completed run into the progress state.
func (p *Progress) Record(rec RunRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	k := [3]string{rec.Scenario, rec.Impairment, rec.Technique}
	c, ok := p.cells[k]
	if !ok {
		c = &CellProgress{Scenario: rec.Scenario, Impairment: rec.Impairment, Technique: rec.Technique}
		p.cells[k] = c
	}
	c.Done++
	switch {
	case rec.Error != "":
		c.Errors++
		p.errs++
	case rec.Correct:
		c.Correct++
	}
}

// Snapshot returns the current state with cells in sorted order.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{Planned: p.total, Done: p.done, Errors: p.errs}
	for _, c := range p.cells {
		s.Cells = append(s.Cells, *c)
	}
	sort.Slice(s.Cells, func(i, j int) bool {
		a, b := s.Cells[i], s.Cells[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Impairment != b.Impairment {
			return a.Impairment < b.Impairment
		}
		return a.Technique < b.Technique
	})
	return s
}
