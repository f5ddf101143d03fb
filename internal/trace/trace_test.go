package trace

import (
	"strings"
	"testing"

	"zac/internal/arch"
	"zac/internal/bench"
	"zac/internal/core"
	"zac/internal/zair"
)

func compiled(t *testing.T) *zair.Program {
	t.Helper()
	res, err := core.Compile(bench.GHZ(8), arch.Reference(), core.Default())
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

func TestEventsChronological(t *testing.T) {
	evs := Events(compiled(t))
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Begin < evs[i-1].Begin {
			t.Fatalf("events out of order at %d", i)
		}
	}
	kinds := map[string]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
		if e.End < e.Begin {
			t.Fatalf("negative-duration event: %+v", e)
		}
	}
	for _, k := range []string{"job", "rydberg", "1q"} {
		if !kinds[k] {
			t.Errorf("missing event kind %q", k)
		}
	}
}

func TestLogAndGantt(t *testing.T) {
	p := compiled(t)
	g := Gantt(p, 60)
	if !strings.Contains(g, "AOD0") || !strings.Contains(g, "#") {
		t.Errorf("gantt missing content:\n%s", g)
	}
	// Every lane line must have the same bar width.
	for _, line := range strings.Split(g, "\n") {
		if strings.Contains(line, "|") {
			parts := strings.Split(line, "|")
			if len(parts) >= 2 && len(parts[1]) != 60 {
				t.Errorf("bar width %d != 60: %q", len(parts[1]), line)
			}
		}
	}
}

func TestGanttEmpty(t *testing.T) {
	if g := Gantt(&zair.Program{}, 40); !strings.Contains(g, "empty") {
		t.Errorf("empty program gantt: %q", g)
	}
}

func TestUtilization(t *testing.T) {
	p := compiled(t)
	u := utilization(p)
	if u["AOD0"] <= 0 || u["AOD0"] > 1 {
		t.Errorf("AOD0 utilization %v", u["AOD0"])
	}
	if u["RYD"] <= 0 {
		t.Errorf("RYD utilization %v", u["RYD"])
	}
	if len(utilization(&zair.Program{})) != 0 {
		t.Error("empty program should have no utilization")
	}
}

func TestMultiAODLanes(t *testing.T) {
	a := arch.WithAODs(arch.Reference(), 2)
	res, err := core.Compile(bench.Ising(30, 1), a, core.Default())
	if err != nil {
		t.Fatal(err)
	}
	u := map[string]bool{}
	for _, e := range Events(res.Program) {
		u[e.Lane] = true
	}
	if !u["AOD0"] {
		t.Error("missing AOD0 lane")
	}
	// With a wide parallel circuit the second AOD should see some work.
	if !u["AOD1"] {
		t.Log("AOD1 unused (acceptable if phases produced single jobs)")
	}
}

// utilization returns, per lane, the fraction of total program time the
// lane is busy — the hardware-utilization metric the multi-AOD study
// optimizes (§VI).
func utilization(p *zair.Program) map[string]float64 {
	total := p.Duration()
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for _, e := range Events(p) {
		out[e.Lane] += (e.End - e.Begin) / total
	}
	return out
}
