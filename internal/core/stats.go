package core

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// Stats collects the size measures the paper's evaluation reports
// (Figures 11–13 plus the in-text compactness ratios). "All nodes" counts
// data nodes plus class nodes, matching the paper's reading of Figure 11
// ("the number of class nodes (the difference between the two numbers
// recorded in 11)").
type Stats struct {
	// Input sizes.
	InputTriples       int // |G|e
	InputDataTriples   int // |D_G|e
	InputTypeTriples   int // |T_G|e
	InputSchemaTriples int // |S_G|e
	InputDataNodes     int
	InputClassNodes    int
	InputDataProps     int // |D_G|⁰p

	// Summary sizes.
	DataNodes     int // data nodes of H_G (Figure 11 top)
	ClassNodes    int // class nodes of H_G
	AllNodes      int // data + class nodes (Figure 11 bottom)
	PropertyNodes int // property nodes of H_G (schema-declared)
	DataEdges     int // |D_H| (Figure 12 top)
	TypeEdges     int // |T_H|
	SchemaEdges   int // |S_H|
	AllEdges      int // |H|e (Figure 12 bottom)
}

// CompressionRatio is |H_G|e / |G|e, the paper's headline compactness
// measure (≤ 0.028 on BSBM, best case 2.8e-4).
func (s Stats) CompressionRatio() float64 {
	if s.InputTriples == 0 {
		return 0
	}
	return float64(s.AllEdges) / float64(s.InputTriples)
}

// DataNodeReduction is |data nodes of G| / |data nodes of H_G|, the
// summarization power measure of §7.
func (s Stats) DataNodeReduction() float64 {
	if s.DataNodes == 0 {
		return 0
	}
	return float64(s.InputDataNodes) / float64(s.DataNodes)
}

// inputStats maintains the input-side size measures incrementally, so a
// snapshot never scans the accumulated graph just to fill Stats. The sets
// are refcounted per triple incidence, which makes them exactly
// decrementable under deletions.
type inputStats struct {
	dataNodes  map[dict.ID]int
	classNodes map[dict.ID]int
	dataProps  map[dict.ID]int
}

func newInputStats() *inputStats {
	return &inputStats{
		dataNodes:  make(map[dict.ID]int),
		classNodes: make(map[dict.ID]int),
		dataProps:  make(map[dict.ID]int),
	}
}

func unref(m map[dict.ID]int, id dict.ID) {
	if c := m[id]; c > 1 {
		m[id] = c - 1
	} else {
		delete(m, id)
	}
}

func (st *inputStats) data(t store.Triple) {
	st.dataNodes[t.S]++
	st.dataNodes[t.O]++
	st.dataProps[t.P]++
}

func (st *inputStats) dataRemoved(t store.Triple) {
	unref(st.dataNodes, t.S)
	unref(st.dataNodes, t.O)
	unref(st.dataProps, t.P)
}

func (st *inputStats) typ(t store.Triple) {
	st.dataNodes[t.S]++
	st.classNodes[t.O]++
}

func (st *inputStats) typRemoved(t store.Triple) {
	unref(st.dataNodes, t.S)
	unref(st.classNodes, t.O)
}

// compute fills Stats from the tracked input counters plus the (small)
// summary graph.
func (st *inputStats) compute(in, out *store.Graph) Stats {
	dataNodes, classNodes := len(out.DataNodes()), len(out.ClassNodes())
	return Stats{
		InputTriples:       in.NumEdges(),
		InputDataTriples:   len(in.Data),
		InputTypeTriples:   len(in.Types),
		InputSchemaTriples: len(in.Schema),
		InputDataNodes:     len(st.dataNodes),
		InputClassNodes:    len(st.classNodes),
		InputDataProps:     len(st.dataProps),

		DataNodes:     dataNodes,
		ClassNodes:    classNodes,
		AllNodes:      dataNodes + classNodes,
		PropertyNodes: len(out.PropertyNodes()),
		DataEdges:     len(out.Data),
		TypeEdges:     len(out.Types),
		SchemaEdges:   len(out.Schema),
		AllEdges:      out.NumEdges(),
	}
}
