package tune

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadCache checks that Load never panics on a hostile TUNED.json
// and that every cache it accepts survives Save and Load unchanged. The
// seed is the committed cache at the repository root.
func FuzzLoadCache(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("..", "..", DefaultPath))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	dir := f.TempDir()
	in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Load(in)
		if err != nil {
			return
		}
		if err := c.Save(out); err != nil {
			t.Fatalf("%q: save: %v", data, err)
		}
		again, err := Load(out)
		if err != nil {
			t.Fatalf("%q: saved cache does not load: %v", data, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("%q: round trip changed the cache:\n got %+v\nwant %+v", data, again, c)
		}
	})
}
