package zair

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// JSON encoding mirrors the artifact: each instruction is an object with a
// "type" discriminator (Fig. 19).
//
// The encoded bytes are a contract that the determinism golden and the
// serve cache hash (DESIGN.md, "ZAIR encoding"): the keys of every
// instruction and machine instruction in alphabetical order, "type"
// included; nil slices as null, except a rearrange job's "insts", which is
// always an array; floats as encoding/json formats a float64.

// MarshalJSON encodes the program as a JSON object whose "instructions"
// array holds the tagged instructions. A NaN or infinite float, or an
// instruction of a type outside this package, is an error naming the
// instruction.
func (p *Program) MarshalJSON() ([]byte, error) {
	name, err := json.Marshal(p.Name)
	if err != nil {
		return nil, err
	}
	e := encoder{buf: make([]byte, 0, 64+256*len(p.Instructions))}
	e.raw(`{"name":`)
	e.buf = append(e.buf, name...)
	e.raw(`,"num_qubits":`)
	e.int(p.NumQubits)
	e.raw(`,"instructions":`)
	if len(p.Instructions) == 0 {
		e.raw("null}")
		return e.buf, nil
	}
	sep := byte('[')
	for i, in := range p.Instructions {
		e.buf = append(e.buf, sep)
		sep = ','
		e.instruction(in)
		if e.err != nil {
			return nil, fmt.Errorf("zair: instruction %d: %w", i, e.err)
		}
	}
	e.raw("]}")
	return e.buf, nil
}

// encoder appends JSON to buf. The first value it cannot encode is kept in
// err; the caller checks err after each instruction.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

// float formats f exactly as encoding/json formats a float64: the shortest
// 'f' form, or 'e' form below 1e-6 or from 1e21 up with a one-digit
// negative exponent unpadded (e-9, not e-09).
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		e.raw("null")
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		n := len(e.buf)
		if n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

func (e *encoder) loc(l QLoc) {
	e.buf = append(e.buf, '[')
	e.int(l.Q)
	e.buf = append(e.buf, ',')
	e.int(l.A)
	e.buf = append(e.buf, ',')
	e.int(l.R)
	e.buf = append(e.buf, ',')
	e.int(l.C)
	e.buf = append(e.buf, ']')
}

func (e *encoder) locs(ls []QLoc) { list(e, ls, e.loc) }

// list writes vs as a JSON array of elem's encodings, or null when vs is
// nil.
func list[T any](e *encoder, vs []T, elem func(T)) {
	if vs == nil {
		e.raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		elem(v)
	}
	e.buf = append(e.buf, ']')
}

func (e *encoder) instruction(in Instruction) {
	switch v := in.(type) {
	case Init:
		e.raw(`{"init_locs":`)
		e.locs(v.Locs)
		e.raw(`,"type":"init"}`)
	case OneQGate:
		e.raw(`{"begin_time":`)
		e.float(v.BeginTime)
		e.raw(`,"end_time":`)
		e.float(v.EndTime)
		e.raw(`,"locs":`)
		e.locs(v.Locs)
		e.raw(`,"type":"1qGate","unitary":`)
		list(e, v.Unitary[:], e.float)
		e.raw("}")
	case Rydberg:
		e.raw(`{"begin_time":`)
		e.float(v.BeginTime)
		e.raw(`,"end_time":`)
		e.float(v.EndTime)
		e.raw(`,"type":"rydberg","zone_id":`)
		e.int(v.ZoneID)
		e.raw("}")
	case RearrangeJob:
		e.raw(`{"aod_id":`)
		e.int(v.AODID)
		e.raw(`,"begin_locs":`)
		list(e, v.BeginLocs, e.locs)
		e.raw(`,"begin_time":`)
		e.float(v.BeginTime)
		e.raw(`,"end_locs":`)
		list(e, v.EndLocs, e.locs)
		e.raw(`,"end_time":`)
		e.float(v.EndTime)
		if e.err != nil {
			return
		}
		e.raw(`,"insts":[`)
		for i, mi := range v.Insts {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.machine(mi)
			if e.err != nil {
				e.err = fmt.Errorf("machine instruction %d: %w", i, e.err)
				return
			}
		}
		e.raw(`],"type":"rearrangeJob"}`)
	default:
		e.err = fmt.Errorf("unknown instruction type %T", in)
	}
}

func (e *encoder) machine(mi MachineInst) {
	switch v := mi.(type) {
	case Activate:
		e.raw(`{"col_id":`)
		list(e, v.ColID, e.int)
		e.raw(`,"col_x":`)
		list(e, v.ColX, e.float)
		e.raw(`,"row_id":`)
		list(e, v.RowID, e.int)
		e.raw(`,"row_y":`)
		list(e, v.RowY, e.float)
		e.raw(`,"type":"activate"}`)
	case Deactivate:
		e.raw(`{"col_id":`)
		list(e, v.ColID, e.int)
		e.raw(`,"row_id":`)
		list(e, v.RowID, e.int)
		e.raw(`,"type":"deactivate"}`)
	case Move:
		e.raw(`{"col_id":`)
		list(e, v.ColID, e.int)
		e.raw(`,"col_x_begin":`)
		list(e, v.ColXBegin, e.float)
		e.raw(`,"col_x_end":`)
		list(e, v.ColXEnd, e.float)
		e.raw(`,"row_id":`)
		list(e, v.RowID, e.int)
		e.raw(`,"row_y_begin":`)
		list(e, v.RowYBegin, e.float)
		e.raw(`,"row_y_end":`)
		list(e, v.RowYEnd, e.float)
		e.raw(`,"type":"move"}`)
	default:
		e.err = fmt.Errorf("unknown machine instruction type %T", mi)
	}
}

// UnmarshalJSON decodes a program from the tagged-array form.
func (p *Program) UnmarshalJSON(data []byte) error {
	var in struct {
		Name      string            `json:"name"`
		NumQubits int               `json:"num_qubits"`
		Insts     []json.RawMessage `json:"instructions"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	p.Name, p.NumQubits = in.Name, in.NumQubits
	p.Instructions = nil
	for i, raw := range in.Insts {
		inst, err := unmarshalInstruction(raw)
		if err != nil {
			return fmt.Errorf("zair: instruction %d: %w", i, err)
		}
		p.Instructions = append(p.Instructions, inst)
	}
	return nil
}

func unmarshalInstruction(raw json.RawMessage) (Instruction, error) {
	var tag struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &tag); err != nil {
		return nil, err
	}
	switch tag.Type {
	case "init":
		var v Init
		err := json.Unmarshal(raw, &v)
		return v, err
	case "1qGate":
		var v OneQGate
		err := json.Unmarshal(raw, &v)
		return v, err
	case "rydberg":
		var v Rydberg
		err := json.Unmarshal(raw, &v)
		return v, err
	case "rearrangeJob":
		var wire struct {
			AODID     int               `json:"aod_id"`
			BeginLocs [][]QLoc          `json:"begin_locs"`
			EndLocs   [][]QLoc          `json:"end_locs"`
			Insts     []json.RawMessage `json:"insts"`
			BeginTime float64           `json:"begin_time"`
			EndTime   float64           `json:"end_time"`
		}
		if err := json.Unmarshal(raw, &wire); err != nil {
			return nil, err
		}
		v := RearrangeJob{
			AODID: wire.AODID, BeginLocs: wire.BeginLocs, EndLocs: wire.EndLocs,
			BeginTime: wire.BeginTime, EndTime: wire.EndTime,
		}
		for _, mraw := range wire.Insts {
			mi, err := unmarshalMachine(mraw)
			if err != nil {
				return nil, err
			}
			v.Insts = append(v.Insts, mi)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("unknown type %q", tag.Type)
	}
}

func unmarshalMachine(raw json.RawMessage) (MachineInst, error) {
	var tag struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &tag); err != nil {
		return nil, err
	}
	switch tag.Type {
	case "activate":
		var v Activate
		err := json.Unmarshal(raw, &v)
		return v, err
	case "deactivate":
		var v Deactivate
		err := json.Unmarshal(raw, &v)
		return v, err
	case "move":
		var v Move
		err := json.Unmarshal(raw, &v)
		return v, err
	default:
		return nil, fmt.Errorf("unknown machine type %q", tag.Type)
	}
}
