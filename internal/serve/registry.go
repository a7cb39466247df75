package serve

// Multi-model registry: one bfserve process serving many (kernel × device ×
// version) bundles, routed by model name. The registry owns an atomically
// swappable view of name → modelSnapshot; request handlers resolve their
// snapshot once and use it for the whole request, so a concurrent reload
// never changes a model under an in-flight prediction — old requests finish
// on the old snapshot, new requests see the new one. Per-model LRU caches
// live inside the snapshot, so a swap naturally invalidates them.
//
// Models come from one of three sources:
//
//   - a directory of bundles (every *.json file, named by its base name)
//   - a manifest.json inside that directory, mapping names to bundle files
//     and optionally electing the default model
//   - a single bundle file or in-memory scaler (the legacy one-model mode),
//     registered under the name "default"
//
// Reloads are driven by SIGHUP (cmd/bfserve) or an fsnotify-free mtime
// watch loop: each pass re-stats every source and reloads only bundles
// whose (path, mtime, size) changed. A bundle that fails to load during a
// reload degrades gracefully — the previous snapshot keeps serving and
// bfserve_reload_failures_total counts the failure; the server never
// crashes or drops a model that was healthy before the reload.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blackforest/internal/core"
	"blackforest/internal/memo"
	"blackforest/internal/obs"
)

// ManifestName is the optional per-directory model manifest file.
const ManifestName = "manifest.json"

// Manifest maps model names to bundle files within a models directory.
type Manifest struct {
	// Default optionally elects the model answering the legacy
	// single-model routes (/v1/predict, /v1/model). When empty, the
	// lexicographically first model name is the default.
	Default string          `json:"default,omitempty"`
	Models  []ManifestModel `json:"models"`
}

// ManifestModel is one manifest entry.
type ManifestModel struct {
	Name string `json:"name"`
	// Path is the bundle file, relative to the manifest's directory.
	Path string `json:"path"`
}

// DecodeManifest parses and validates a models-directory manifest: strict
// JSON, non-empty unique names, relative paths that cannot escape the
// directory. Hostile input returns an error, never panics.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("invalid manifest JSON: %w", err)
	}
	if dec.More() {
		return nil, errors.New("trailing data after manifest object")
	}
	if len(m.Models) == 0 {
		return nil, errors.New("manifest lists no models")
	}
	seen := make(map[string]bool, len(m.Models))
	for i, e := range m.Models {
		if e.Name == "" {
			return nil, fmt.Errorf("manifest model %d has no name", i)
		}
		if strings.ContainsAny(e.Name, "/\\") {
			return nil, fmt.Errorf("manifest model name %q contains a path separator", e.Name)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("manifest names model %q twice", e.Name)
		}
		seen[e.Name] = true
		if e.Path == "" {
			return nil, fmt.Errorf("manifest model %q has no path", e.Name)
		}
		if filepath.IsAbs(e.Path) {
			return nil, fmt.Errorf("manifest model %q has an absolute path", e.Name)
		}
		clean := filepath.Clean(e.Path)
		if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("manifest model %q path escapes the models directory", e.Name)
		}
	}
	if m.Default != "" && !seen[m.Default] {
		return nil, fmt.Errorf("manifest default %q is not a listed model", m.Default)
	}
	return &m, nil
}

// modelSource is one on-disk bundle discovered by a scan: identity plus the
// change signature (mtime, size) the watch loop compares.
type modelSource struct {
	name  string
	path  string
	mtime time.Time
	size  int64
}

// modelSnapshot is the immutable serving state of one loaded model version.
// Everything a request needs — scaler, cache, coalescer — hangs off the
// snapshot, so requests that resolved it before a swap keep a fully
// consistent model until they finish.
type modelSnapshot struct {
	name    string
	version int // bumps on every successful (re)load of this name
	path    string
	mtime   time.Time
	size    int64
	loaded  time.Time

	scaler *core.ProblemScaler
	cache  *memo.LRU[string, Prediction] // nil when caching is disabled
	// predictions is this name's bfserve_predictions_total series; the
	// metrics registry hands every version of a name the same counter.
	predictions *obs.Counter

	coal *coalescer // nil when micro-batch coalescing is disabled
}

// registryView is one immutable generation of the registry: swapped
// atomically as a whole, so readers always see a consistent model set and
// default election.
type registryView struct {
	models      map[string]*modelSnapshot
	defaultName string
	names       []string // sorted
}

// Registry resolves model names to snapshots and reloads them from disk.
type Registry struct {
	mu   sync.Mutex // serializes loads and reloads
	view atomic.Pointer[registryView]

	// scan enumerates the current model sources; nil for a static
	// in-memory registry (no reload possible).
	scan func() ([]modelSource, string, error)
	// loader reads one bundle; swapped by cmd/bfserve to thread fault
	// injection into the read path.
	loader func(path string) (*core.ProblemScaler, error)
	// override forces the default model name regardless of manifest.
	override string
	// onLoad decorates each fresh snapshot (the server attaches the
	// per-model coalescer here).
	onLoad func(*modelSnapshot)

	cacheSize int
	versions  map[string]int // name → last assigned version (guarded by mu)

	// metrics receives a bfserve_predictions_total series per loaded name;
	// reloads and reloadFailures count Reload outcomes.
	metrics                 *obs.Registry
	reloads, reloadFailures *obs.Counter
}

func newRegistry(cacheSize int, m *obs.Registry) *Registry {
	r := &Registry{
		loader:    core.LoadProblemScalerFile,
		cacheSize: cacheSize,
		versions:  make(map[string]int),
		metrics:   m,
		reloads: m.Counter("bfserve_reloads_total",
			"Models successfully (re)loaded by the registry."),
		reloadFailures: m.Counter("bfserve_reload_failures_total",
			"Bundle loads that failed during a reload (previous model kept serving)."),
	}
	r.view.Store(&registryView{models: map[string]*modelSnapshot{}})
	return r
}

// scanDir enumerates a models directory: manifest.json when present,
// otherwise every *.json bundle named by its base name.
func scanDir(dir string) ([]modelSource, string, error) {
	manifestPath := filepath.Join(dir, ManifestName)
	if f, err := os.Open(manifestPath); err == nil {
		m, derr := func() (*Manifest, error) {
			defer f.Close()
			return DecodeManifest(f)
		}()
		if derr != nil {
			return nil, "", fmt.Errorf("%s: %w", manifestPath, derr)
		}
		sources := make([]modelSource, 0, len(m.Models))
		for _, e := range m.Models {
			src, err := statSource(e.Name, filepath.Join(dir, e.Path))
			if err != nil {
				return nil, "", err
			}
			sources = append(sources, src)
		}
		sortSources(sources)
		return sources, m.Default, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var sources []modelSource
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || e.Name() == ManifestName {
			continue
		}
		src, err := statSource(strings.TrimSuffix(e.Name(), ".json"), filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, "", err
		}
		sources = append(sources, src)
	}
	sortSources(sources)
	return sources, "", nil
}

func statSource(name, path string) (modelSource, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return modelSource{}, err
	}
	return modelSource{name: name, path: path, mtime: fi.ModTime(), size: fi.Size()}, nil
}

func sortSources(s []modelSource) {
	sort.Slice(s, func(i, j int) bool { return s[i].name < s[j].name })
}

// loadStatic installs a single in-memory scaler under name — the legacy
// one-model mode; the registry cannot reload it.
func (r *Registry) loadStatic(name string, ps *core.ProblemScaler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.versions[name] = 1
	snap := r.newSnapshot(modelSource{name: name}, ps)
	r.view.Store(&registryView{
		models:      map[string]*modelSnapshot{name: snap},
		defaultName: name,
		names:       []string{name},
	})
}

func (r *Registry) newSnapshot(src modelSource, ps *core.ProblemScaler) *modelSnapshot {
	snap := &modelSnapshot{
		name:    src.name,
		version: r.versions[src.name],
		path:    src.path,
		mtime:   src.mtime,
		size:    src.size,
		loaded:  time.Now(),
		scaler:  ps,
		cache:   memo.NewLRU[string, Prediction](r.cacheSize),
		predictions: r.metrics.Counter("bfserve_predictions_total",
			"Characteristic vectors predicted per model (cache hits included).",
			obs.Label{Name: "model", Value: src.name}),
	}
	if r.onLoad != nil {
		r.onLoad(snap)
	}
	return snap
}

// Reload rescans the sources and atomically swaps in a new view. Unchanged
// bundles (same path, mtime, size) keep their snapshot — cache and all;
// changed or new bundles are loaded fresh with an invalidated cache and a
// bumped version. A bundle that fails to load keeps its previous snapshot
// serving (degrade, never crash) and counts in
// bfserve_reload_failures_total. Reload returns how many models were
// (re)loaded and the per-model load errors.
func (r *Registry) Reload() (changed int, errs []error) {
	if r.scan == nil {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	sources, manifestDefault, err := r.scan()
	if err != nil {
		// The scan itself failed (directory unreadable, manifest
		// corrupt): keep the entire previous view serving.
		r.reloadFailures.Inc()
		return 0, []error{err}
	}
	old := r.view.Load()
	next := make(map[string]*modelSnapshot, len(sources))
	for _, src := range sources {
		prev, had := old.models[src.name]
		if had && prev.path == src.path && prev.mtime.Equal(src.mtime) && prev.size == src.size {
			next[src.name] = prev
			continue
		}
		ps, err := r.loader(src.path)
		if err != nil {
			r.reloadFailures.Inc()
			errs = append(errs, fmt.Errorf("model %s (%s): %w", src.name, src.path, err))
			if had {
				next[src.name] = prev // previous version keeps serving
			}
			continue
		}
		r.versions[src.name]++
		next[src.name] = r.newSnapshot(src, ps)
		changed++
	}
	if len(next) == 0 {
		// Refuse to swap to an empty registry: an all-failing reload must
		// not take down a serving process.
		if len(old.models) > 0 {
			errs = append(errs, errors.New("reload produced no loadable models; keeping previous set"))
			return changed, errs
		}
		errs = append(errs, errors.New("no loadable models"))
		return changed, errs
	}
	names := make([]string, 0, len(next))
	for n := range next {
		names = append(names, n)
	}
	sort.Strings(names)
	r.view.Store(&registryView{
		models:      next,
		defaultName: r.electDefault(next, manifestDefault, names),
		names:       names,
	})
	if changed > 0 {
		r.reloads.Add(int64(changed))
	}
	return changed, errs
}

// electDefault picks the default model: explicit override first, then the
// manifest's election, then the lexicographically first name.
func (r *Registry) electDefault(models map[string]*modelSnapshot, manifestDefault string, sorted []string) string {
	if r.override != "" {
		if _, ok := models[r.override]; ok {
			return r.override
		}
	}
	if manifestDefault != "" {
		if _, ok := models[manifestDefault]; ok {
			return manifestDefault
		}
	}
	return sorted[0]
}

// Watch polls the sources every interval and reloads on change, until ctx
// is done. It is the fsnotify-free hot-reload loop: Reload itself compares
// (path, mtime, size) per model, so an idle tick costs a handful of stats
// and swaps nothing. Per-model load failures are reported through onError
// (nil = dropped) and bfserve_reload_failures_total; the loop itself never
// stops on them.
func (r *Registry) Watch(ctx context.Context, interval time.Duration, onError func(error)) {
	if r.scan == nil || interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, errs := r.Reload()
			if onError != nil {
				for _, err := range errs {
					onError(err)
				}
			}
		}
	}
}

// resolve returns the snapshot for name, or the default model when name is
// empty (the legacy routes).
func (r *Registry) resolve(name string) (*modelSnapshot, bool) {
	v := r.view.Load()
	if name == "" {
		name = v.defaultName
	}
	snap, ok := v.models[name]
	return snap, ok
}

// defaultSnapshot returns the current default model's snapshot.
func (r *Registry) defaultSnapshot() *modelSnapshot {
	snap, _ := r.resolve("")
	return snap
}

// list returns the current snapshots sorted by name, plus the default name.
func (r *Registry) list() ([]*modelSnapshot, string) {
	v := r.view.Load()
	out := make([]*modelSnapshot, 0, len(v.names))
	for _, n := range v.names {
		out = append(out, v.models[n])
	}
	return out, v.defaultName
}
