package scenario

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// designKindLists reads the kind lists out of DESIGN.md's scenario section:
// between the scenario-kinds markers, a heading line ("Event kinds (…):")
// followed by one "- `name`" item per kind.
func designKindLists(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- scenario-kinds:begin -->")
	body, _, ok2 := strings.Cut(rest, "<!-- scenario-kinds:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no scenario-kinds markers")
	}
	heading := regexp.MustCompile("^([A-Z][A-Za-z ]+) \\(`[^`]+`[^)]*\\):$")
	item := regexp.MustCompile("^- `([^`]+)`")
	lists := map[string][]string{}
	current := ""
	for _, line := range strings.Split(body, "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			current = m[1]
		} else if m := item.FindStringSubmatch(line); m != nil {
			lists[current] = append(lists[current], m[1])
		}
	}
	return lists
}

// TestDesignListsEveryKind holds DESIGN.md's lists to the tables in
// kinds.go: the same names in the same order, both ways round. A kind added
// to a table without its line in the document fails here, and so does a
// line that outlived its kind.
func TestDesignListsEveryKind(t *testing.T) {
	doc := designKindLists(t)
	tables := map[string][]string{
		"Event kinds":             names(eventKinds),
		"Restore modes":           names(restoreModes),
		"Assertion kinds":         names(assertionKinds),
		"Apps":                    names(appKinds),
		"Generators":              names(generatorKinds),
		"Filebench personalities": names(personalityKinds),
		"SLO kinds":               names(sloKinds),
	}
	for heading, want := range tables {
		if got := doc[heading]; !slices.Equal(got, want) {
			t.Errorf("DESIGN.md %q lists %v, the table holds %v", heading, got, want)
		}
	}
	for heading := range doc {
		if _, ok := tables[heading]; !ok {
			t.Errorf("DESIGN.md lists %q, which is no table in kinds.go", heading)
		}
	}
}

// TestKindTablesAreWellFormed: every entry has a name, a help line and
// something to do, and no table names a kind twice — lookup returns the
// first, so a duplicate would be dead.
func TestKindTablesAreWellFormed(t *testing.T) {
	check := func(table string, names []string, complete func(i int) bool) {
		seen := map[string]bool{}
		for i, name := range names {
			if name == "" || seen[name] || !complete(i) {
				t.Errorf("%s[%d] %q: unnamed, duplicate, or missing its doc or its function", table, i, name)
			}
			seen[name] = true
		}
	}
	check("eventKinds", names(eventKinds), func(i int) bool { return eventKinds[i].doc != "" && eventKinds[i].do != nil })
	check("assertionKinds", names(assertionKinds), func(i int) bool { return assertionKinds[i].doc != "" && assertionKinds[i].do != nil })
	check("appKinds", names(appKinds), func(i int) bool {
		return appKinds[i].doc != "" && appKinds[i].do != nil && appKinds[i].check != nil
	})
	check("generatorKinds", names(generatorKinds), func(i int) bool { return generatorKinds[i].doc != "" && generatorKinds[i].do != nil })
	check("personalityKinds", names(personalityKinds), func(i int) bool { return personalityKinds[i].doc != "" && personalityKinds[i].do != nil })
	check("sloKinds", names(sloKinds), func(i int) bool { return sloKinds[i].doc != "" })
	check("restoreModes", names(restoreModes), func(i int) bool {
		return restoreModes[i].doc != "" && restoreModes[i].do.restore != nil && restoreModes[i].do.cost != nil
	})
	// Help prints every name of every table.
	help := Help()
	for _, list := range [][]string{names(eventKinds), names(restoreModes), names(assertionKinds), names(appKinds),
		names(generatorKinds), names(personalityKinds), names(sloKinds)} {
		for _, name := range list {
			if !strings.Contains(help, "  "+name+" ") {
				t.Errorf("Help() does not list %q", name)
			}
		}
	}
}
