package harness

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// expFlag is a `-exp <id>` argument; placeholders (<id>, X) do not match.
	expFlag = regexp.MustCompile(`-exp ([a-z][a-z0-9-]*)`)
	tickID  = regexp.MustCompile("`([^`\n]+)`")
)

// TestDocsCiteLiveExperiments keeps the documents' experiment ids true to
// the registry: every `-exp <id>` argument in README.md, DESIGN.md and
// EXPERIMENTS.md, and every id in DESIGN.md's experiment table, must name
// a registered experiment.
func TestDocsCiteLiveExperiments(t *testing.T) {
	var flags, rows int
	check := func(doc string, line int, id string) {
		if _, ok := Find(id); !ok {
			t.Errorf("%s:%d: experiment %q is not registered", doc, line, id)
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		inTable := false
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range expFlag.FindAllStringSubmatch(line, -1) {
				flags++
				check(doc, i+1, m[1])
			}
			if doc != "DESIGN.md" {
				continue
			}
			switch {
			case strings.HasPrefix(line, "| Experiment ids |"):
				inTable = true
			case !strings.HasPrefix(line, "|"):
				inTable = false
			case inTable && !strings.HasPrefix(line, "|---"):
				first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
				for _, m := range tickID.FindAllStringSubmatch(first, -1) {
					rows++
					check(doc, i+1, m[1])
				}
			}
		}
	}
	if flags == 0 || rows == 0 {
		t.Fatalf("read %d -exp arguments and %d table ids: a pattern no longer matches the documents", flags, rows)
	}
}
