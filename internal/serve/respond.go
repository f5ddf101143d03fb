package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
)

// zairPlaceholder stands in for a ZAIR program while encoding/json encodes
// the response envelope around it; zairSlot is the line it produces.
// encoding/json escapes every '"' inside a string, so zairSlot only occurs
// where a CompileResponse's own "zair" key sits.
var (
	zairPlaceholder = json.RawMessage("0")
	zairSlot        = []byte(`"zair": 0`)
)

// encodeResponse returns json.MarshalIndent(v, "", "  ") plus a newline,
// without passing any ZAIR program through encoding/json. A single
// *CompileResponse, a BatchResponse or a JobResponse has its programs lifted
// out and replaced by zairPlaceholder; encoding/json encodes the small
// envelope that remains, and the programs are spliced back in, re-indented
// for their depth. This is exact because the programs are
// json.MarshalIndent(program, "", " ") output: in indented JSON a raw
// newline occurs only as layout, followed by its depth in spaces, and the
// bytes are already in the escaped form encoding/json would give them.
func encodeResponse(v any) ([]byte, error) {
	v, zairs := liftZAIR(v)
	env, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	if len(zairs) == 0 {
		return append(env, '\n'), nil
	}
	type slot struct{ at, indent int }
	slots := make([]slot, len(zairs))
	size := len(env) + 1
	from := 0
	for i, z := range zairs {
		at := bytes.Index(env[from:], zairSlot)
		if at < 0 {
			return nil, errors.New("serve: response envelope lost a ZAIR slot")
		}
		at += from
		indent := at - (bytes.LastIndexByte(env[:at], '\n') + 1)
		slots[i] = slot{at, indent}
		size += reindentedLen(z, indent)
		from = at + len(zairSlot)
	}
	out := make([]byte, 0, size)
	from = 0
	for i, s := range slots {
		value := s.at + len(zairSlot) - len(zairPlaceholder)
		out = append(out, env[from:value]...)
		out = appendReindented(out, zairs[i], s.indent)
		from = s.at + len(zairSlot)
	}
	return append(append(out, env[from:]...), '\n'), nil
}

// liftZAIR returns v with the ZAIR of every compile result it carries
// replaced by zairPlaceholder, plus the lifted programs in encoding order.
// Results are copied, never written: they are shared with concurrent
// responses and retained jobs.
func liftZAIR(v any) (any, [][]byte) {
	switch r := v.(type) {
	case *CompileResponse:
		if len(r.ZAIR) > 0 {
			return withPlaceholder(r), [][]byte{r.ZAIR}
		}
	case BatchResponse:
		var zairs [][]byte
		r.Results, zairs = liftItems(r.Results)
		return r, zairs
	case JobResponse:
		var zairs [][]byte
		r.Results, zairs = liftItems(r.Results)
		return r, zairs
	}
	return v, nil
}

// liftItems is liftZAIR over batch items; it copies the slice only when an
// item carries a program.
func liftItems(items []BatchItem) ([]BatchItem, [][]byte) {
	var zairs [][]byte
	out := items
	for i, it := range items {
		if it.Result == nil || len(it.Result.ZAIR) == 0 {
			continue
		}
		if zairs == nil {
			out = slices.Clone(items)
		}
		out[i].Result = withPlaceholder(it.Result)
		zairs = append(zairs, it.Result.ZAIR)
	}
	return out, zairs
}

// withPlaceholder returns a copy of r whose ZAIR is zairPlaceholder.
func withPlaceholder(r *CompileResponse) *CompileResponse {
	c := *r
	c.ZAIR = zairPlaceholder
	return &c
}

// appendReindented appends src, JSON indented one space per level from
// depth 0, re-indented two spaces per level from a line already indented by
// indent spaces: every newline keeps its line and the k spaces after it
// become indent+2k.
func appendReindented(dst, src []byte, indent int) []byte {
	for {
		nl := bytes.IndexByte(src, '\n')
		if nl < 0 {
			return append(dst, src...)
		}
		dst = append(dst, src[:nl+1]...)
		src = src[nl+1:]
		k := 0
		for k < len(src) && src[k] == ' ' {
			k++
		}
		dst = appendSpaces(dst, indent+2*k)
		src = src[k:]
	}
}

// spaces feeds appendSpaces.
const spaces = "                                                                "

// appendSpaces appends n spaces.
func appendSpaces(dst []byte, n int) []byte {
	for ; n > len(spaces); n -= len(spaces) {
		dst = append(dst, spaces...)
	}
	return append(dst, spaces[:n]...)
}

// reindentedLen is the length appendReindented(nil, src, indent) appends.
func reindentedLen(src []byte, indent int) int {
	n := len(src)
	for {
		nl := bytes.IndexByte(src, '\n')
		if nl < 0 {
			return n
		}
		src = src[nl+1:]
		k := 0
		for k < len(src) && src[k] == ' ' {
			k++
		}
		n += indent + k
		src = src[k:]
	}
}

// writeJSON writes v as indented JSON with the given status; see
// encodeResponse.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := encodeResponse(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, data)
}

// writeBody writes a complete JSON body. It declares the Content-Length, so
// net/http sends even a large body unchunked.
func writeBody(w http.ResponseWriter, status int, data []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", fmt.Sprint(len(data)))
	w.WriteHeader(status)
	w.Write(data)
}

// writeError writes err as an ErrorResponse with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
