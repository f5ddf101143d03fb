package arch

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// Fingerprint returns a short stable digest of the full architecture
// specification, suitable as a compilation-cache key component: two
// architectures with identical zone layouts, AOD arrays, and hardware
// parameters share a fingerprint. The digest covers the JSON encoding plus
// the fields the artifact format does not serialize (ZoneSep,
// MovementAccel). It is computed once per value and memoized, like the
// topology tables.
func (a *Architecture) Fingerprint() string {
	fp, _ := a.fingerprint()
	return fp
}

// fingerprintMemo is a computed fingerprint and its encoding error.
type fingerprintMemo struct {
	fp  string
	err error
}

// fingerprint is Fingerprint plus the JSON encoding's error. On an error
// (a NaN or infinite field) the digest covers only the unserialized fields,
// so it does not identify the architecture.
func (a *Architecture) fingerprint() (string, error) {
	if m, ok := a.digest.Load().(*fingerprintMemo); ok {
		return m.fp, m.err
	}
	m := &fingerprintMemo{}
	h := fnv.New64a()
	data, err := json.Marshal(a)
	if err == nil {
		h.Write(data)
	}
	fmt.Fprintf(h, "|sep=%g|accel=%g", a.ZoneSep, a.MovementAccel)
	m.fp, m.err = fmt.Sprintf("%016x", h.Sum64()), err
	a.digest.CompareAndSwap(nil, m) // a concurrent first use computed the same value
	return m.fp, m.err
}
