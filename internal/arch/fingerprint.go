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
// MovementAccel).
func (a *Architecture) Fingerprint() string {
	fp, _ := a.fingerprint()
	return fp
}

// fingerprint is Fingerprint plus the JSON encoding's error. On an error
// (a NaN or infinite field) the digest covers only the unserialized fields,
// so it does not identify the architecture.
func (a *Architecture) fingerprint() (string, error) {
	h := fnv.New64a()
	data, err := json.Marshal(a)
	if err == nil {
		h.Write(data)
	}
	fmt.Fprintf(h, "|sep=%g|accel=%g", a.ZoneSep, a.MovementAccel)
	return fmt.Sprintf("%016x", h.Sum64()), err
}
