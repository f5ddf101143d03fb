package compiler

import (
	"fmt"

	"zac/internal/arch"
)

// Key is the cache identity of one compilation, the only one the repo
// builds: the compiler configuration that shapes the output, the input
// circuit's key, the Rydberg-stage split cap its staging was split to
// (0 = unsplit), and the architecture's fingerprint.
//
// For the ZAC family the configuration is the resolved placement options
// in canonical form (place.Options.Canonical: defaults filled, the
// speed-only Workers stripped), so two requests that run the same
// configuration share one key whatever preset, Core override or restart
// count spelled it. The baselines ignore Core, SARestarts and Workers, so
// their configuration is the registry name alone.
//
// input must identify the staged circuit before splitting: a benchmark name,
// a canonical workload spec or a content digest, prefixed when the same
// circuit is preprocessed differently (the harness's native-CCZ inputs).
func Key(c Compiler, opts Options, input string, splitSites int, a *arch.Architecture) string {
	config := "compiler=" + c.Name()
	if z, ok := c.(*zacCompiler); ok {
		config = fmt.Sprintf("place=%+v", z.resolve(opts).Place.Canonical())
	}
	return fmt.Sprintf("%s|in=%s|split=%d|arch=%s", config, input, splitSites, a.Fingerprint())
}
