package compiler

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"testing"

	"zac/internal/arch"
	"zac/internal/core"
	"zac/internal/place"
)

// keyPerturbations classifies every place.Options field: a perturbation of
// Default() for each field that may change compiled output, nil for the one
// that only changes speed. A field added to place.Options fails
// TestKeyCoversOutput until it is listed here.
var keyPerturbations = map[string]func(o *place.Options){
	"UseSA":         func(o *place.Options) { o.UseSA = false },
	"Dynamic":       func(o *place.Options) { o.Dynamic = false },
	"Reuse":         func(o *place.Options) { o.Reuse = false },
	"AdvancedReuse": func(o *place.Options) { o.AdvancedReuse = true },
	"SAIterations":  func(o *place.Options) { o.SAIterations = 100 },
	"Expansion":     func(o *place.Options) { o.Expansion = 1 },
	"KNeighbors":    func(o *place.Options) { o.KNeighbors = 4 },
	"Alpha":         func(o *place.Options) { o.Alpha = 0.5 },
	"Seed":          func(o *place.Options) { o.Seed = 2 },
	"SARestarts":    func(o *place.Options) { o.SARestarts = 3 },
	"Workers":       nil,
}

// TestKeyCoversOutput is the cache-identity property: for every
// place.Options field, perturbing it from Default() either leaves the ZAIR
// digest unchanged or changes Key. The speed-only Workers changes neither,
// and the baselines' keys ignore the options they ignore.
func TestKeyCoversOutput(t *testing.T) {
	ot := reflect.TypeOf(place.Options{})
	for i := 0; i < ot.NumField(); i++ {
		if _, ok := keyPerturbations[ot.Field(i).Name]; !ok {
			t.Fatalf("place.Options.%s is not classified in keyPerturbations", ot.Field(i).Name)
		}
	}
	if len(keyPerturbations) != ot.NumField() {
		t.Fatalf("keyPerturbations lists %d fields, place.Options has %d", len(keyPerturbations), ot.NumField())
	}

	zc, err := Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	// Every perturbation changes qft_n18's program, so no case holds
	// vacuously.
	const circ = "qft_n18"
	staged := stagedFor(t, zc, circ)
	a := TargetArch(zc)
	split := arch.Reference().TotalSites()
	compile := func(t *testing.T, opts Options) (key string, digest [32]byte) {
		t.Helper()
		r, err := zc.Compile(context.Background(), staged, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(r.Program, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return Key(zc, opts, circ, split, a), sha256.Sum256(data)
	}
	withPlace := func(o place.Options) Options { return Options{Core: &core.Options{Place: o}} }

	baseKey, baseDigest := compile(t, withPlace(place.Default()))
	if presetKey, presetDigest := compile(t, Options{}); presetKey != baseKey || presetDigest != baseDigest {
		t.Error("the zac preset and an explicit Default() override differ in key or digest")
	}
	for field, perturb := range keyPerturbations {
		if perturb == nil {
			continue
		}
		o := place.Default()
		perturb(&o)
		key, digest := compile(t, withPlace(o))
		switch {
		case digest == baseDigest:
			t.Errorf("%s: the perturbation leaves %s's program unchanged; pick one that changes it", field, circ)
		case key == baseKey:
			t.Errorf("%s changes the ZAIR digest but not the key %q", field, key)
		}
	}

	w1Key, w1Digest := compile(t, Options{Workers: 1})
	w2Key, w2Digest := compile(t, Options{Workers: 2})
	if w1Key != w2Key || w1Key != baseKey {
		t.Errorf("Workers changes the key: %q, %q", w1Key, w2Key)
	}
	if w1Digest != w2Digest || w1Digest != baseDigest {
		t.Error("Workers changes the ZAIR digest")
	}

	perturbed := core.Options{Place: place.Default()}
	perturbed.Place.Expansion = 4
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, zacFamily := Setting(name); zacFamily {
			continue
		}
		plain := Key(c, Options{}, circ, split, TargetArch(c))
		if k := Key(c, Options{Core: &perturbed, SARestarts: 4, Workers: 2}, circ, split, TargetArch(c)); k != plain {
			t.Errorf("%s: Core, SARestarts or Workers changes a baseline key: %q vs %q", name, k, plain)
		}
	}
}

// TestKeySeparatesInputs: the input key, the split cap, the architecture
// and the compiler each change Key.
func TestKeySeparatesInputs(t *testing.T) {
	zc, err := Get("zac")
	if err != nil {
		t.Fatal(err)
	}
	enola, err := Get("enola")
	if err != nil {
		t.Fatal(err)
	}
	ref := arch.Reference()
	keys := map[string]string{
		"base":     Key(zc, Options{}, "bv_n14", 0, ref),
		"input":    Key(zc, Options{}, "ghz_n23", 0, ref),
		"split":    Key(zc, Options{}, "bv_n14", 16, ref),
		"arch":     Key(zc, Options{}, "bv_n14", 0, arch.WithAODs(ref, 2)),
		"compiler": Key(enola, Options{}, "bv_n14", 0, ref),
		"preset":   Key(zc, Options{Core: &core.Options{Place: core.OptionsFor(core.SettingVanilla).Place}}, "bv_n14", 0, ref),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if other, dup := seen[k]; dup {
			t.Errorf("%s and %s share key %q", name, other, k)
		}
		seen[k] = name
	}
}
