package arch

import (
	"sync/atomic"

	"zac/internal/geom"
)

// Physical constants of the reference architecture (paper Fig. 2).
const (
	DRyd    = 2.0  // µm: separation between the two traps of a Rydberg site
	DOmega  = 10.0 // µm: separation between Rydberg sites (rows and columns)
	DStore  = 3.0  // µm: storage-trap separation
	DSep    = 10.0 // µm: separation between zones
	RefT1q  = 52.0 // µs: conservative 1Q gate duration
	RefTRyd = 0.36 // µs: Rydberg (CZ) exposure duration
	RefTTr  = 15.0 // µs: atom-transfer duration
	RefT2   = 1.5e6
)

// NeutralAtomTimes returns the Table I neutral-atom durations.
func NeutralAtomTimes() OperationTimes {
	return OperationTimes{Rydberg: RefTRyd, OneQGate: RefT1q, AtomTransfer: RefTTr}
}

// NeutralAtomFidelities returns the Table I / §VII-B neutral-atom fidelities.
func NeutralAtomFidelities() OperationFidelities {
	return OperationFidelities{
		TwoQubit:     0.995,
		SingleQubit:  0.9997,
		AtomTransfer: 0.999,
		Excitation:   0.9975,
	}
}

// Reference builds the paper's reference zoned architecture (Fig. 2 /
// Fig. 20): a 100×100 storage zone (3µm pitch) at the origin, an
// entanglement zone of 7×20 Rydberg sites above it (x pitch dRyd+dω = 12µm,
// y pitch dω = 10µm, two SLM arrays offset by dRyd), a readout zone (no
// SLM), and one 100×100 AOD.
func Reference() *Architecture {
	storage := Zone{
		ID: 0, Kind: StorageZone,
		Offset: geom.Point{X: 0, Y: 0},
		Dim:    geom.Point{X: 300, Y: 300},
		SLMs: []SLMArray{{
			ID: 0, SepX: DStore, SepY: DStore, Rows: 100, Cols: 100,
			Offset: geom.Point{X: 0, Y: 0},
		}},
	}
	ent := Zone{
		ID: 0, Kind: EntanglementZone,
		Offset: geom.Point{X: 35, Y: 307},
		Dim:    geom.Point{X: 240, Y: 70},
		SLMs: []SLMArray{
			{ID: 1, SepX: DRyd + DOmega, SepY: DOmega, Rows: 7, Cols: 20, Offset: geom.Point{X: 35, Y: 307}},
			{ID: 2, SepX: DRyd + DOmega, SepY: DOmega, Rows: 7, Cols: 20, Offset: geom.Point{X: 37, Y: 307}},
		},
	}
	readout := Zone{
		ID: 0, Kind: ReadoutZone,
		Offset: geom.Point{X: 0, Y: 387},
		Dim:    geom.Point{X: 300, Y: 15},
	}
	return &Architecture{
		Name:         "full_compute_store_architecture",
		AODs:         []AODArray{{ID: 0, MinSep: 2, MaxRows: 100, MaxCols: 100}},
		Storage:      []Zone{storage},
		Entanglement: []Zone{ent},
		Readout:      []Zone{readout},
		Times:        NeutralAtomTimes(),
		Fidelities:   NeutralAtomFidelities(),
		T2:           RefT2,
		ZoneSep:      DSep,
	}
}

// ReferenceTriple builds a variant of the reference architecture whose
// Rydberg sites hold three traps (paper §III: "it is possible to increase
// the number of SLM traps in a Rydberg site to leverage a Rydberg gate on
// more qubits"): three SLM arrays at x, x+2, x+4 µm with a site x-pitch of
// 2·dRyd + dω = 14 µm, supporting native CCZ gates.
func ReferenceTriple() *Architecture {
	a := Reference()
	pitchX := 2*DRyd + DOmega
	cols := 17 // 17 sites of 14µm pitch fit the 240µm-wide zone
	ent := Zone{
		ID: 0, Kind: EntanglementZone,
		Offset: geom.Point{X: 35, Y: 307},
		Dim:    geom.Point{X: float64(cols) * pitchX, Y: 70},
		SLMs: []SLMArray{
			{ID: 1, SepX: pitchX, SepY: DOmega, Rows: 7, Cols: cols, Offset: geom.Point{X: 35, Y: 307}},
			{ID: 2, SepX: pitchX, SepY: DOmega, Rows: 7, Cols: cols, Offset: geom.Point{X: 37, Y: 307}},
			{ID: 3, SepX: pitchX, SepY: DOmega, Rows: 7, Cols: cols, Offset: geom.Point{X: 39, Y: 307}},
		},
	}
	a.Name = "triple_site_architecture"
	a.Entanglement = []Zone{ent}
	return a
}

// WithAODs returns a copy of a with n identical AOD arrays (used by the
// multi-AOD study, Fig. 14).
func WithAODs(a *Architecture, n int) *Architecture {
	out := *a
	out.topology = atomic.Value{} // the copy builds, or shares, its own
	out.digest = atomic.Value{}   // and computes its own fingerprint
	out.AODs = make([]AODArray, n)
	for i := 0; i < n; i++ {
		out.AODs[i] = AODArray{ID: i, MinSep: 2, MaxRows: 100, MaxCols: 100}
	}
	return &out
}

// Monolithic builds the monolithic comparison architecture (§VII-A): a
// single entanglement zone of 10×10 Rydberg sites, one 10×10 AOD, and no
// storage zone; the Rydberg laser illuminates everything.
func Monolithic() *Architecture {
	ent := Zone{
		ID: 0, Kind: EntanglementZone,
		Offset: geom.Point{X: 0, Y: 0},
		Dim:    geom.Point{X: float64(10) * (DRyd + DOmega), Y: 10 * DOmega},
		SLMs: []SLMArray{
			{ID: 0, SepX: DRyd + DOmega, SepY: DOmega, Rows: 10, Cols: 10, Offset: geom.Point{X: 0, Y: 0}},
			{ID: 1, SepX: DRyd + DOmega, SepY: DOmega, Rows: 10, Cols: 10, Offset: geom.Point{X: DRyd, Y: 0}},
		},
	}
	return &Architecture{
		Name:         "monolithic",
		AODs:         []AODArray{{ID: 0, MinSep: 2, MaxRows: 10, MaxCols: 10}},
		Entanglement: []Zone{ent},
		Times:        NeutralAtomTimes(),
		Fidelities:   NeutralAtomFidelities(),
		T2:           RefT2,
		ZoneSep:      DSep,
	}
}

// Arch1Small builds the single-entanglement-zone small architecture of
// §VII-H: 3×40 storage traps and one entanglement zone with 6×10 sites.
func Arch1Small() *Architecture {
	storage := Zone{
		ID: 0, Kind: StorageZone,
		Offset: geom.Point{X: 0, Y: 0},
		Dim:    geom.Point{X: 120, Y: 9},
		SLMs: []SLMArray{{
			ID: 0, SepX: DStore, SepY: DStore, Rows: 3, Cols: 40,
			Offset: geom.Point{X: 0, Y: 0},
		}},
	}
	entY := storage.Dim.Y + DSep
	ent := Zone{
		ID: 0, Kind: EntanglementZone,
		Offset: geom.Point{X: 0, Y: entY},
		Dim:    geom.Point{X: 10 * (DRyd + DOmega), Y: 6 * DOmega},
		SLMs: []SLMArray{
			{ID: 1, SepX: DRyd + DOmega, SepY: DOmega, Rows: 6, Cols: 10, Offset: geom.Point{X: 0, Y: entY}},
			{ID: 2, SepX: DRyd + DOmega, SepY: DOmega, Rows: 6, Cols: 10, Offset: geom.Point{X: DRyd, Y: entY}},
		},
	}
	return &Architecture{
		Name:         "arch1_small",
		AODs:         []AODArray{{ID: 0, MinSep: 2, MaxRows: 100, MaxCols: 100}},
		Storage:      []Zone{storage},
		Entanglement: []Zone{ent},
		Times:        NeutralAtomTimes(),
		Fidelities:   NeutralAtomFidelities(),
		T2:           RefT2,
		ZoneSep:      DSep,
	}
}

// Arch2TwoZones builds the two-entanglement-zone architecture of §VII-H:
// the same 3×40 storage zone with a 3×10-site entanglement zone above it
// and another below it.
func Arch2TwoZones() *Architecture {
	storageHeight := 9.0
	zoneHeight := 3 * DOmega
	below := Zone{
		ID: 0, Kind: EntanglementZone,
		Offset: geom.Point{X: 0, Y: 0},
		Dim:    geom.Point{X: 10 * (DRyd + DOmega), Y: zoneHeight},
		SLMs: []SLMArray{
			{ID: 1, SepX: DRyd + DOmega, SepY: DOmega, Rows: 3, Cols: 10, Offset: geom.Point{X: 0, Y: 0}},
			{ID: 2, SepX: DRyd + DOmega, SepY: DOmega, Rows: 3, Cols: 10, Offset: geom.Point{X: DRyd, Y: 0}},
		},
	}
	storageY := zoneHeight + DSep
	storage := Zone{
		ID: 0, Kind: StorageZone,
		Offset: geom.Point{X: 0, Y: storageY},
		Dim:    geom.Point{X: 120, Y: storageHeight},
		SLMs: []SLMArray{{
			ID: 0, SepX: DStore, SepY: DStore, Rows: 3, Cols: 40,
			Offset: geom.Point{X: 0, Y: storageY},
		}},
	}
	aboveY := storageY + storageHeight + DSep
	above := Zone{
		ID: 1, Kind: EntanglementZone,
		Offset: geom.Point{X: 0, Y: aboveY},
		Dim:    geom.Point{X: 10 * (DRyd + DOmega), Y: zoneHeight},
		SLMs: []SLMArray{
			{ID: 3, SepX: DRyd + DOmega, SepY: DOmega, Rows: 3, Cols: 10, Offset: geom.Point{X: 0, Y: aboveY}},
			{ID: 4, SepX: DRyd + DOmega, SepY: DOmega, Rows: 3, Cols: 10, Offset: geom.Point{X: DRyd, Y: aboveY}},
		},
	}
	return &Architecture{
		Name:         "arch2_two_zones",
		AODs:         []AODArray{{ID: 0, MinSep: 2, MaxRows: 100, MaxCols: 100}},
		Storage:      []Zone{storage},
		Entanglement: []Zone{below, above},
		Times:        NeutralAtomTimes(),
		Fidelities:   NeutralAtomFidelities(),
		T2:           RefT2,
		ZoneSep:      DSep,
	}
}

// Logical832 builds the logical-level architecture for [[8,3,2]]-code block
// compilation (§VIII): each code block occupies 2 rows × 4 columns of
// physical traps, so the 7×20-site physical entanglement zone supports
// ⌊7/2⌋ = 3 rows and ⌊20/4⌋ = 5 columns of logical sites; the storage zone
// is scaled accordingly to hold 128 blocks.
func Logical832() *Architecture {
	// Block pitch: 4 physical storage columns (12µm) × 2 rows (6µm).
	blockW, blockH := 4*DStore, 2*DStore
	storage := Zone{
		ID: 0, Kind: StorageZone,
		Offset: geom.Point{X: 0, Y: 0},
		Dim:    geom.Point{X: 32 * blockW, Y: 4 * blockH},
		SLMs: []SLMArray{{
			ID: 0, SepX: blockW, SepY: blockH, Rows: 4, Cols: 32,
			Offset: geom.Point{X: 0, Y: 0},
		}},
	}
	// Logical site pitch: 4 entanglement columns (48µm) × 2 rows (20µm);
	// paired blocks in a logical site are separated by one block width.
	entY := storage.Dim.Y + DSep
	siteSepX, siteSepY := 4*(DRyd+DOmega), 2*DOmega
	ent := Zone{
		ID: 0, Kind: EntanglementZone,
		Offset: geom.Point{X: 0, Y: entY},
		Dim:    geom.Point{X: 5 * siteSepX, Y: 3 * siteSepY},
		SLMs: []SLMArray{
			{ID: 1, SepX: siteSepX, SepY: siteSepY, Rows: 3, Cols: 5, Offset: geom.Point{X: 0, Y: entY}},
			{ID: 2, SepX: siteSepX, SepY: siteSepY, Rows: 3, Cols: 5, Offset: geom.Point{X: blockW, Y: entY}},
		},
	}
	return &Architecture{
		Name:         "logical_832",
		AODs:         []AODArray{{ID: 0, MinSep: 2, MaxRows: 100, MaxCols: 100}},
		Storage:      []Zone{storage},
		Entanglement: []Zone{ent},
		Times:        NeutralAtomTimes(),
		Fidelities:   NeutralAtomFidelities(),
		T2:           RefT2,
		ZoneSep:      DSep,
	}
}
