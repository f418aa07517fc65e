package perfvet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"perfeng/internal/perfvet/facts"
)

// The incremental engine. A perfvet run is content-addressed per
// package: the cache key hashes the package's own sources, the keys of
// its module-internal imports (so invalidation propagates to reverse
// dependencies automatically), and the analyzer-suite stamp (suite
// version, Go version, selected analyzers). A hit replays the
// package's recorded findings and exported facts without parsing,
// type-checking or analyzing it; a miss loads and analyzes just that
// package, with dependency types resolved lazily and dependency facts
// taken from the cache.
//
// Keying never type-checks: it reads file bytes (needed for hashing
// anyway) and parses import blocks only, a few microseconds per file.
// Entries are written atomically (temp file + rename) and any entry
// that fails to decode or does not match its stamp is discarded as a
// miss — a corrupted cache can cost time, never correctness.

// SuiteVersion stamps every cache entry. Bump it when an analyzer's
// semantics change in a way that should invalidate recorded findings
// (adding/removing analyzers is covered separately: the selected set
// is part of the stamp).
const SuiteVersion = "perfvet-suite/1"

// VetOptions configures one cached, interprocedural perfvet run.
type VetOptions struct {
	// Dir is the module root (where go.mod lives).
	Dir string
	// Patterns are package patterns as Loader.Load accepts them;
	// empty means ./...
	Patterns []string
	// Analyzers is the suite to run.
	Analyzers []*Analyzer
	// CacheDir holds the fact cache; "" disables caching entirely.
	CacheDir string
	// SuiteVersion overrides the analyzer-suite stamp (tests use this
	// to prove a version bump invalidates everything). Empty means
	// the package constant.
	SuiteVersion string
}

// CacheStats reports what one Vet run replayed versus analyzed.
type CacheStats struct {
	Hits    int
	Misses  int
	Corrupt int
	// Replayed and Analyzed list import paths, sorted, covering the
	// full import closure of the requested patterns.
	Replayed []string
	Analyzed []string
}

func (s *CacheStats) String() string {
	return fmt.Sprintf("perfvet cache: %d replayed, %d analyzed, %d corrupt entries discarded",
		s.Hits, s.Misses, s.Corrupt)
}

// DefaultCacheDir returns the per-user on-disk cache location.
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("perfvet: no user cache dir (set -cache): %w", err)
	}
	return filepath.Join(base, "perfeng-perfvet"), nil
}

// Vet is the incremental entry point used by the CLI: it expands the
// patterns, keys the full import closure, replays cached packages and
// analyzes the rest in dependency order, so interprocedural facts are
// always available before their dependents need them.
func Vet(opts VetOptions) (*Report, *CacheStats, error) {
	loader, err := NewLoader(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := loader.expand(patterns)
	if err != nil {
		return nil, nil, err
	}
	stamp := suiteStamp(opts.SuiteVersion, opts.Analyzers)
	sc := &scanner{loader: loader, stamp: stamp, fset: token.NewFileSet(), pkgs: make(map[string]*scanPkg)}
	targets := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		importPath, err := loader.importPathFor(dir)
		if err != nil {
			return nil, nil, err
		}
		targets = append(targets, importPath)
		//perfvet:ignore:allocattr,fmttransitive scanning hashes each package's sources once; per-package scratch and error paths are the job
		if _, err := sc.scan(dir, importPath); err != nil {
			return nil, nil, err
		}
	}
	sort.Strings(targets)

	graph := facts.NewGraph()
	stats := &CacheStats{}
	byPath := make(map[string][]Finding, len(sc.order))
	for _, sp := range sc.order {
		if entry := loadCacheEntry(opts.CacheDir, sp.key, stamp, sp.path, stats); entry != nil {
			graph.Add(entry.Facts)
			byPath[sp.path] = absFindings(entry.Findings, loader.ModuleDir)
			stats.Hits++
			stats.Replayed = append(stats.Replayed, sp.path)
			continue
		}
		//perfvet:ignore:allocattr a cache miss re-parses and re-checks the package; that work is why the cache exists
		pkg, err := loader.LoadDir(sp.dir, sp.path)
		if err != nil {
			return nil, stats, err
		}
		//perfvet:ignore:allocattr fact summarization allocates per function summarized; it runs once per missed package
		pf := pkg.Facts(loader.Rel)
		graph.Add(pf)
		//perfvet:ignore:allocattr per-package suppression scratch; each package is analyzed once per run
		findings, err := analyzePackage(pkg, opts.Analyzers, graph)
		if err != nil {
			return nil, stats, err
		}
		byPath[sp.path] = findings
		storeCacheEntry(opts.CacheDir, sp.key, &cacheEntry{
			Suite: stamp, Path: sp.path,
			Findings: relFindings(findings, loader), Facts: pf,
		})
		stats.Misses++
		stats.Analyzed = append(stats.Analyzed, sp.path)
	}
	sort.Strings(stats.Replayed)
	sort.Strings(stats.Analyzed)

	names := make([]string, 0, len(opts.Analyzers))
	for _, a := range opts.Analyzers {
		names = append(names, a.Name)
	}
	report := &Report{Analyzers: names, Packages: len(targets)}
	for _, t := range targets {
		report.Findings = append(report.Findings, byPath[t]...)
	}
	sortFindings(report.Findings)
	return report, stats, nil
}

// suiteStamp binds cache entries to everything that can change a
// finding besides the source itself.
func suiteStamp(version string, analyzers []*Analyzer) string {
	if version == "" {
		version = SuiteVersion
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return version + "|" + runtime.Version() + "|" + strings.Join(names, ",")
}

// importPathFor maps a package directory to its import path, the same
// way Load does.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// A scanPkg is one package of the import closure with its cache key.
type scanPkg struct {
	dir, path string
	key       string
	scanning  bool
}

// scanner walks the module-internal import closure without
// type-checking, producing content-addressed keys in dependency
// order. It parses into its own FileSet: keying positions never
// matter, and the loader's set should only hold fully-loaded files.
type scanner struct {
	loader *Loader
	stamp  string
	fset   *token.FileSet
	pkgs   map[string]*scanPkg
	order  []*scanPkg // postorder: dependencies before dependents
}

func (sc *scanner) scan(dir, importPath string) (*scanPkg, error) {
	if sp, ok := sc.pkgs[importPath]; ok {
		if sp.scanning {
			return nil, fmt.Errorf("perfvet: import cycle through %s", importPath)
		}
		return sp, nil
	}
	sp := &scanPkg{dir: dir, path: importPath, scanning: true}
	sc.pkgs[importPath] = sp

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("perfvet: no Go files in %s", dir)
	}

	h := sha256.New()
	fmt.Fprintf(h, "stamp %s\npackage %s\n", sc.stamp, importPath)
	depSet := make(map[string]bool)
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(src)
		fmt.Fprintf(h, "file %s %s\n", name, hex.EncodeToString(sum[:]))
		f, err := parser.ParseFile(sc.fset, filepath.Join(dir, name), src, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == sc.loader.ModulePath || strings.HasPrefix(p, sc.loader.ModulePath+"/") {
				depSet[p] = true
			}
		}
	}
	deps := make([]string, 0, len(depSet))
	for p := range depSet {
		deps = append(deps, p)
	}
	sort.Strings(deps)
	for _, p := range deps {
		depDir := sc.loader.ModuleDir
		if rest, ok := strings.CutPrefix(p, sc.loader.ModulePath+"/"); ok {
			depDir = filepath.Join(sc.loader.ModuleDir, filepath.FromSlash(rest))
		}
		//perfvet:ignore:allocattr,fmttransitive dependency keys recurse once per package; memoized by sc.keys
		dep, err := sc.scan(depDir, p)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "dep %s %s\n", p, dep.key)
	}
	sp.key = hex.EncodeToString(h.Sum(nil))
	sp.scanning = false
	sc.order = append(sc.order, sp)
	return sp, nil
}

// A cacheEntry is the persisted outcome of analyzing one package:
// its ignore-filtered findings (module-relative paths) and its
// exported facts for dependents' interprocedural queries.
type cacheEntry struct {
	Suite    string              `json:"suite"`
	Path     string              `json:"path"`
	Findings []Finding           `json:"findings"`
	Facts    *facts.PackageFacts `json:"facts"`
}

func cachePath(cacheDir, key string) string {
	return filepath.Join(cacheDir, key[:2], key+".json")
}

// loadCacheEntry returns the entry for key, or nil on any miss:
// absent, unreadable, undecodable, stamped differently, or holding
// facts of another package or a null function fact. Damaged entries
// count in stats and are overwritten by the re-analysis.
func loadCacheEntry(cacheDir, key, stamp, path string, stats *CacheStats) *cacheEntry {
	if cacheDir == "" {
		return nil
	}
	data, err := os.ReadFile(cachePath(cacheDir, key))
	if err != nil {
		return nil
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Suite != stamp || e.Path != path ||
		e.Facts == nil || e.Facts.Path != path || slices.Contains(e.Facts.Funcs, nil) {
		stats.Corrupt++
		return nil
	}
	return &e
}

// storeCacheEntry persists one entry atomically. Cache writes are
// best-effort: a read-only or full cache directory degrades to
// cold-running, never to failing the vet.
func storeCacheEntry(cacheDir, key string, e *cacheEntry) {
	if cacheDir == "" {
		return
	}
	if e.Findings == nil {
		e.Findings = []Finding{} // distinguish "clean" from "missing" in the JSON
	}
	path := cachePath(cacheDir, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// relFindings rewrites finding paths module-relative for storage.
func relFindings(findings []Finding, l *Loader) []Finding {
	out := make([]Finding, len(findings))
	for i, f := range findings {
		f.File = l.Rel(f.File)
		out[i] = f
	}
	return out
}

// absFindings restores absolute paths on replay.
func absFindings(findings []Finding, moduleDir string) []Finding {
	out := make([]Finding, len(findings))
	for i, f := range findings {
		if !filepath.IsAbs(f.File) {
			f.File = filepath.Join(moduleDir, filepath.FromSlash(f.File))
		}
		out[i] = f
	}
	return out
}
