package model

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"dasc/internal/dag"
	"dasc/internal/geo"
)

func TestExample1Valid(t *testing.T) {
	in := Example1()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Workers) != 3 || len(in.Tasks) != 5 {
		t.Fatalf("sizes %d/%d", len(in.Workers), len(in.Tasks))
	}
	st := in.ComputeStats()
	if st.RootTasks != 2 || st.MaxDepSetSize != 2 || st.CriticalPathLength != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Dependencies are already transitively closed.
	g, err := in.DepGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTransitivelyClosed() {
		t.Error("Example1 deps not closed")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"bad worker id", func(in *Instance) { in.Workers[1].ID = 7 }, "has ID"},
		{"negative wait", func(in *Instance) { in.Workers[0].Wait = -1 }, "negative parameter"},
		{"no skills", func(in *Instance) { in.Workers[0].Skills = SkillSet{} }, "no skills"},
		{"bad task id", func(in *Instance) { in.Tasks[2].ID = 9 }, "has ID"},
		{"negative task wait", func(in *Instance) { in.Tasks[0].Wait = -2 }, "negative waiting"},
		{"unknown dep", func(in *Instance) { in.Tasks[1].Deps = []TaskID{99} }, "unknown task"},
		{"self dep", func(in *Instance) { in.Tasks[1].Deps = []TaskID{1} }, "itself"},
		{"dup dep", func(in *Instance) { in.Tasks[1].Deps = []TaskID{0, 0} }, "twice"},
	}
	for _, tc := range cases {
		in := Example1()
		tc.mutate(in)
		err := in.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateCycle(t *testing.T) {
	in := Example1()
	in.Tasks[0].Deps = []TaskID{2} // t1 → t3 while t3 → t1
	err := in.Validate()
	if !errors.Is(err, dag.ErrCycle) {
		t.Errorf("err = %v, want ErrCycle", err)
	}
}

func TestCloseDeps(t *testing.T) {
	in := Example1()
	// Break the closure: t3 only lists t2 directly.
	in.Tasks[2].Deps = []TaskID{1}
	in.CloseDeps()
	// Own entries first, then the missing ancestor.
	if got := in.Tasks[2].Deps; !reflect.DeepEqual(got, []TaskID{1, 0}) {
		t.Errorf("closed deps = %v", got)
	}
	g, err := in.DepGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTransitivelyClosed() {
		t.Error("closed deps not transitively closed")
	}
}

func TestLookupOutOfRange(t *testing.T) {
	in := Example1()
	if in.Worker(-1) != nil || in.Worker(99) != nil {
		t.Error("out-of-range Worker not nil")
	}
	if in.Task(-1) != nil || in.Task(99) != nil {
		t.Error("out-of-range Task not nil")
	}
	if in.Worker(0) == nil || in.Task(4) == nil {
		t.Error("in-range lookup nil")
	}
}

func TestDistanceDefault(t *testing.T) {
	in := &Instance{}
	d := in.Distance()
	if d(geo.Pt(0, 0), geo.Pt(3, 4)) != 5 {
		t.Error("default metric is not Euclidean")
	}
	in.Dist = geo.Manhattan
	if in.Distance()(geo.Pt(0, 0), geo.Pt(3, 4)) != 7 {
		t.Error("custom metric ignored")
	}
}
