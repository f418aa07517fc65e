package perfvet

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadCacheEntry writes the fuzzed bytes as the cache entry of
// allocattrdep, the dependency of the allocattr fixture, and vets
// allocattr over that cache with allocattr's own entry absent. The run
// loads the entry (loadCacheEntry), replays its findings (absFindings)
// and analyzes allocattr, whose interprocedural analyzers look up
// allocattrdep's replayed facts. No input may panic or fail the run.
// An entry loadCacheEntry rejects counts as Corrupt, is re-analyzed,
// and leaves the report of a cold run.
func FuzzLoadCacheEntry(f *testing.F) {
	root, err := findModuleRoot()
	if err != nil {
		f.Fatal(err)
	}
	const (
		dependent  = "perfeng/internal/perfvet/testdata/src/allocattr"
		dependency = "perfeng/internal/perfvet/testdata/src/allocattrdep"
	)
	opts := VetOptions{
		Dir:       root,
		Patterns:  []string{"./internal/perfvet/testdata/src/allocattr"},
		Analyzers: All(),
		CacheDir:  f.TempDir(),
	}
	cold, _, err := Vet(opts)
	if err != nil {
		f.Fatal(err)
	}
	if len(cold.Findings) == 0 {
		f.Fatal("allocattr fixture produced no findings; the replay check would be vacuous")
	}
	var coldJSON bytes.Buffer
	if err := cold.WriteJSON(&coldJSON); err != nil {
		f.Fatal(err)
	}

	// Find allocattrdep's entry, the one the fuzzed bytes replace.
	var entryRel string
	var entry []byte
	err = filepath.WalkDir(opts.CacheDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var e cacheEntry
		if json.Unmarshal(data, &e) == nil && e.Path == dependency {
			entryRel, _ = filepath.Rel(opts.CacheDir, path)
			entry = data
		}
		return nil
	})
	if err != nil || entry == nil {
		f.Fatalf("no cache entry for %s (err %v)", dependency, err)
	}
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	f.Add(bytes.Replace(entry, []byte(`"funcs":[`), []byte(`"funcs":[{"calls":["`+dependency+`.SumSq"]},`), 1))
	f.Add([]byte(`{}`))
	// Regression seeds: a null function fact (graph.Add dereferenced
	// it) and facts recorded for another package.
	f.Add(bytes.Replace(entry, []byte(`"funcs":[`), []byte(`"funcs":[null,`), 1))
	f.Add(bytes.Replace(entry, []byte(`"facts":{"path":"`+dependency), []byte(`"facts":{"path":"`+dependent), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		run := opts
		run.CacheDir = t.TempDir()
		path := filepath.Join(run.CacheDir, entryRel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, stats, err := Vet(run)
		if err != nil {
			t.Fatalf("vet over a fuzzed entry: %v", err)
		}
		switch stats.Corrupt {
		case 0:
			if !reflect.DeepEqual(stats.Replayed, []string{dependency}) || !reflect.DeepEqual(stats.Analyzed, []string{dependent}) {
				t.Fatalf("accepted entry: stats %+v, want %s replayed and %s analyzed", stats, dependency, dependent)
			}
		case 1:
			if len(stats.Replayed) != 0 || !reflect.DeepEqual(stats.Analyzed, []string{dependent, dependency}) {
				t.Fatalf("rejected entry: stats %+v, want both packages analyzed", stats)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), coldJSON.Bytes()) {
				t.Fatalf("rejected entry changed the report:\ncold: %s\ngot:  %s", coldJSON.Bytes(), got.Bytes())
			}
		default:
			t.Fatalf("one fuzzed entry counted %d corrupt", stats.Corrupt)
		}
	})
}
