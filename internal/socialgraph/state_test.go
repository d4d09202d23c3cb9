package socialgraph

import (
	"reflect"
	"strings"
	"testing"
)

// TestImportStateRejectsMalformed pins that ImportState reports every state
// ExportState could not have produced as an error, and leaves the graph
// untouched when it does.
func TestImportStateRejectsMalformed(t *testing.T) {
	friend := []Relationship{{Kind: Friendship}}
	valid := func() State {
		return State{
			NumNodes: 4,
			Edges: []EdgeState{
				{I: 0, J: 1, Rels: friend},
				{I: 0, J: 3, Rels: friend},
				{I: 1, J: 2, Rels: friend},
			},
			Interactions: make([]map[NodeID]float64, 4),
		}
	}
	cases := []struct {
		name   string
		mutate func(*State)
		want   string
	}{
		{"node count", func(st *State) { st.NumNodes = 5 }, "5 nodes"},
		{"interaction rows", func(st *State) { st.Interactions = st.Interactions[:3] }, "3 interaction rows"},
		{"out of range", func(st *State) { st.Edges[2].J = 4 }, "out of range"},
		{"negative", func(st *State) { st.Edges[0].I = -1 }, "out of range"},
		{"self edge", func(st *State) { st.Edges[2] = EdgeState{I: 2, J: 2, Rels: friend} }, "self edge"},
		{"reversed pair", func(st *State) { st.Edges[2].I, st.Edges[2].J = 2, 1 }, "I < J"},
		{"unsorted", func(st *State) { st.Edges[0], st.Edges[1] = st.Edges[1], st.Edges[0] }, "order"},
		{"duplicate", func(st *State) { st.Edges[1] = st.Edges[0] }, "duplicate"},
		{"empty rels", func(st *State) { st.Edges[1].Rels = nil }, "no relationships"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New(4)
			g.AddRelationship(2, 3, Relationship{Kind: Kinship})
			before, epoch := g.ExportState(), g.Epoch()
			st := valid()
			tc.mutate(&st)
			err := g.ImportState(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ImportState error = %v, want one mentioning %q", err, tc.want)
			}
			if !reflect.DeepEqual(g.ExportState(), before) || g.Epoch() != epoch {
				t.Fatal("a rejected ImportState changed the graph")
			}
		})
	}
	g := New(4)
	if err := g.ImportState(valid()); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if got := g.Friends(0); !reflect.DeepEqual(got, []NodeID{1, 3}) {
		t.Fatalf("Friends(0) after import = %v, want [1 3]", got)
	}
}
