// Package trace renders compiled ZAIR programs as human-readable timelines:
// a chronological event list and an ASCII Gantt chart with one lane per AOD
// plus lanes for Rydberg exposures and 1Q pulse trains. It exists for
// debugging compilations and for inspecting how the load-balancing scheduler
// fills multiple AODs (paper §VI).
//
// Naming: this package draws what the *quantum machine* will do with a
// compiled program. Request-scoped tracing of the compiler software itself
// (spans, trace IDs, /v1/traces) lives in internal/telemetry.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"zac/internal/zair"
)

// Event is one timeline entry.
type Event struct {
	Begin, End float64
	Kind       string // "job", "rydberg", "1q"
	Lane       string // "AOD0", "RYD", "1Q"
	Label      string
}

// Events extracts the chronological event list from a program.
func Events(p *zair.Program) []Event {
	var evs []Event
	for _, inst := range p.Instructions {
		switch v := inst.(type) {
		case zair.OneQGate:
			evs = append(evs, Event{
				Begin: v.BeginTime, End: v.EndTime, Kind: "1q", Lane: "1Q",
				Label: fmt.Sprintf("u3×%d", len(v.Locs)),
			})
		case zair.Rydberg:
			evs = append(evs, Event{
				Begin: v.BeginTime, End: v.EndTime, Kind: "rydberg", Lane: "RYD",
				Label: fmt.Sprintf("zone%d", v.ZoneID),
			})
		case zair.RearrangeJob:
			evs = append(evs, Event{
				Begin: v.BeginTime, End: v.EndTime, Kind: "job",
				Lane:  fmt.Sprintf("AOD%d", v.AODID),
				Label: fmt.Sprintf("%dq", v.NumMoved()),
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Begin != evs[j].Begin {
			return evs[i].Begin < evs[j].Begin
		}
		return evs[i].Lane < evs[j].Lane
	})
	return evs
}

// Gantt renders an ASCII Gantt chart of the program, width columns wide.
// Each lane shows '█' where the lane is busy.
func Gantt(p *zair.Program, width int) string {
	if width < 20 {
		width = 80
	}
	total := p.Duration()
	if total <= 0 {
		return "(empty program)\n"
	}
	evs := Events(p)
	lanes := map[string][]Event{}
	var laneNames []string
	for _, e := range evs {
		if _, ok := lanes[e.Lane]; !ok {
			laneNames = append(laneNames, e.Lane)
		}
		lanes[e.Lane] = append(lanes[e.Lane], e)
	}
	sort.Strings(laneNames)

	var b strings.Builder
	fmt.Fprintf(&b, "gantt: %s — %.3f ms across %d lanes\n", p.Name, total/1000, len(laneNames))
	for _, lane := range laneNames {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		busy := 0.0
		for _, e := range lanes[lane] {
			lo := int(e.Begin / total * float64(width))
			hi := int(e.End / total * float64(width))
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = '#'
			}
			busy += e.End - e.Begin
		}
		fmt.Fprintf(&b, "%-6s |%s| %4.1f%%\n", lane, row, 100*busy/total)
	}
	return b.String()
}
