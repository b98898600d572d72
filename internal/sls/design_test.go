package sls

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignObjectModelTable holds DESIGN.md's "POSIX object model" table to
// the code: its tags are the UT* constants of sls.go, in order and all of
// them, and its gate column says "gated" exactly for the records a checkpoint
// of one object of every kind leaves in the capture gate.
func TestDesignObjectModelTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- posix-objects:begin -->")
	body, _, ok2 := strings.Cut(rest, "<!-- posix-objects:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no posix-objects markers")
	}
	var docTags []string
	docGated := map[string]bool{}
	row := regexp.MustCompile("^\\| [^|]+ \\| `(UT[A-Za-z]+)` \\|.*\\| ([^|]+) \\|$")
	for _, line := range strings.Split(body, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			docTags = append(docTags, m[1])
			docGated[m[1]] = m[2] == "gated"
		}
	}

	src, err := os.ReadFile("sls.go")
	if err != nil {
		t.Fatal(err)
	}
	_, consts, _ := strings.Cut(string(src), "UTManifest uint16 = 0x5300 + iota")
	consts, _, _ = strings.Cut(consts, "\n)")
	codeTags := []string{"UTManifest"}
	for _, m := range regexp.MustCompile(`(?m)^\t(UT[A-Za-z]+)$`).FindAllStringSubmatch(consts, -1) {
		codeTags = append(codeTags, m[1])
	}
	if !slices.Equal(docTags, codeTags) {
		t.Fatalf("DESIGN.md lists %v, sls.go declares %v", docTags, codeTags)
	}

	w := newWorld(t)
	p := w.k.NewProc("app")
	g := w.o.CreateGroup("app")
	if err := g.Attach(p); err != nil {
		t.Fatal(err)
	}
	for _, kind := range objKinds() {
		if err := kindBuilders[kind](w, p); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	if _, err := g.Checkpoint(CkptIncremental); err != nil {
		t.Fatal(err)
	}
	held, gated := map[string]int{}, map[string]int{}
	for _, oid := range w.store.Objects() {
		ut, _ := w.store.UType(oid)
		if i := int(ut) - int(UTManifest); i >= 0 && i < len(codeTags) {
			held[codeTags[i]]++
			if _, ok := g.committed[oid]; ok {
				gated[codeTags[i]]++
			}
		}
	}
	for _, tag := range codeTags {
		if tag != "UTMemObject" && held[tag] == 0 {
			t.Errorf("the checkpoint wrote no %s record", tag)
		}
		if docGated[tag] != (held[tag] > 0 && gated[tag] == held[tag]) {
			t.Errorf("%s: DESIGN.md says gated = %v; the gate holds %d of its %d records", tag, docGated[tag], gated[tag], held[tag])
		}
	}
}
