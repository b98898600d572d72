package objstore

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignMutationTable holds DESIGN.md's mutation table to the code: its
// rows are the walOp* constants of wal.go, all of them, in order and with
// their numbers, and the "live entry points" column of a kind's row names
// every function of the package that builds a walOp of that kind.
func TestDesignMutationTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- store-mutations:begin -->")
	body, _, ok2 := strings.Cut(rest, "<!-- store-mutations:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no store-mutations markers")
	}
	var docKinds []string
	live := map[string]string{} // constant -> its row's live-entry-points cell
	row := regexp.MustCompile("^\\s*\\| (\\d+) \\| `(walOp[A-Za-z]+)` \\| ([^|]+) \\|")
	for _, line := range strings.Split(body, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			docKinds = append(docKinds, m[2]+"="+m[1])
			live[m[2]] = m[3]
		}
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var codeKinds []string
	builders := map[string][]string{} // constant -> functions with a walOp{kind: constant literal
	constDecl := regexp.MustCompile(`^\t(walOp[A-Za-z]+) += (\d+)`)
	funcDecl := regexp.MustCompile(`^func (?:\([a-z]+ \*?([A-Za-z]+)\) )?([A-Za-z]+)\(`)
	literal := regexp.MustCompile(`walOp\{kind: (walOp[A-Za-z]+)`)
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fn := ""
		for _, line := range strings.Split(string(src), "\n") {
			if m := constDecl.FindStringSubmatch(line); m != nil {
				codeKinds = append(codeKinds, m[1]+"="+m[2])
			}
			if m := funcDecl.FindStringSubmatch(line); m != nil {
				if fn = m[2]; m[1] != "" && m[1] != "Store" {
					fn = m[1] + "." + m[2]
				}
			}
			if m := literal.FindStringSubmatch(line); m != nil && !slices.Contains(builders[m[1]], fn) {
				builders[m[1]] = append(builders[m[1]], fn)
			}
		}
	}
	if !slices.Equal(docKinds, codeKinds) {
		t.Fatalf("DESIGN.md lists %v, wal.go declares %v", docKinds, codeKinds)
	}
	for _, kind := range codeKinds {
		name, _, _ := strings.Cut(kind, "=")
		if len(builders[name]) == 0 {
			t.Errorf("no function builds a %s op", name)
		}
		for _, fn := range builders[name] {
			if !strings.Contains(live[name], fmt.Sprintf("`%s`", fn)) {
				t.Errorf("%s builds a %s op; its DESIGN.md row does not list it (row: %s)", fn, name, live[name])
			}
		}
	}
}
