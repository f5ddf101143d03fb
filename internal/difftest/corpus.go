package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// writeRepro persists one divergence's minimized circuit as a commented
// QASM file and returns its path. The filename encodes the class, the
// offending compiler, and a content hash, so re-discovering the same repro
// is idempotent. The QASM parser strips // comments, so the header rides
// along harmlessly when the file is replayed.
func writeRepro(dir string, d Divergence) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(d.QASM))
	comp := strings.NewReplacer("/", "-", ">", "-gt-", " ", "_").Replace(d.Compiler)
	name := fmt.Sprintf("%s--%s--%s.qasm", d.Class, comp, hex.EncodeToString(sum[:4]))
	path := filepath.Join(dir, name)
	var b strings.Builder
	fmt.Fprintf(&b, "// difftest repro\n")
	fmt.Fprintf(&b, "// class: %s\n", d.Class)
	fmt.Fprintf(&b, "// compiler: %s\n", d.Compiler)
	fmt.Fprintf(&b, "// input: %s\n", d.Input)
	for _, line := range strings.Split(d.Detail, "\n") {
		fmt.Fprintf(&b, "// detail: %s\n", line)
	}
	b.WriteString(d.QASM)
	if !strings.HasSuffix(d.QASM, "\n") {
		b.WriteString("\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
