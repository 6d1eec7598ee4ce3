package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// Cache is a content-addressed store for sweep results: the caller
// hashes everything that determines a result (resolved spec material,
// seed, version salt) into a key, and the cache persists the result under
// that key — a scalar for a grid cell, a whole table for a custom driver.
// Values round-trip through their exact IEEE-754 bit pattern, so a cache
// hit reproduces the recomputed figure byte for byte.
//
// The cache is strictly best-effort: unreadable, corrupt or unwritable
// entries degrade to recomputation and are never an error. It is safe
// for concurrent use (distinct keys write distinct files; same-key
// writers race to an atomic rename of identical content).
type Cache struct {
	dir                  string
	hits, misses, errors atomic.Uint64

	// Backoff, when non-nil, is called between I/O retry attempts
	// (attempt counts from 1); the tests set it to observe retries.
	// Internal packages are wall-clock-free by lint rule, so the cache
	// never sleeps, and pdqsim sets no Backoff: a retry follows at once.
	Backoff func(attempt int)
}

// cacheAttempts bounds the retry loop around transient cache I/O: the
// first try plus two retries. Missing entries and corrupt content are not
// transient and are never retried.
const cacheAttempts = 3

func (c *Cache) backoff(attempt int) {
	if c.Backoff != nil {
		c.Backoff(attempt)
	}
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: opening cache %s: %w", dir, err)
	}
	return &Cache{dir: dir}, nil
}

// DefaultCacheDir returns the conventional cache location,
// $XDG_CACHE_HOME/pdqsim (~/.cache/pdqsim on Linux).
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("trace: no user cache dir: %w", err)
	}
	return filepath.Join(base, "pdqsim"), nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Hits returns how many lookups were served from the store.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns how many lookups fell through to recomputation.
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// Errors returns how many entries were unreadable or corrupt (each also
// counts as a miss).
func (c *Cache) Errors() uint64 { return c.errors.Load() }

// Key hashes arbitrary key material to a content address.
func Key(material []byte) string {
	sum := sha256.Sum256(material)
	return hex.EncodeToString(sum[:])
}

// path maps a key to its entry file, sharded by the first hex byte so no
// single directory grows unboundedly.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:])
}

// GetFloat looks up a cached scalar. A malformed or unreadable entry is
// a miss, never an error.
func (c *Cache) GetFloat(key string) (float64, bool) {
	data, ok := c.read(key)
	if !ok {
		return 0, false
	}
	s := strings.TrimSpace(string(data))
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil || len(s) != 16 {
		c.corrupt(key)
		return 0, false
	}
	c.hits.Add(1)
	return math.Float64frombits(bits), true
}

// PutFloat stores a scalar under key as the 16 hex digits of its bits.
func (c *Cache) PutFloat(key string, v float64) {
	c.put(key, fmt.Appendf(nil, "%016x\n", math.Float64bits(v)))
}

// CachedTable is a result table's data as a table entry holds it.
type CachedTable struct {
	Cols []string
	Rows []CachedRow
}

// CachedRow is one labeled row of a CachedTable; Errs is nil for a
// single-trial table.
type CachedRow struct {
	Label      string
	Vals, Errs []float64
}

// tableEntry is a table entry's JSON form. Every float is its IEEE-754
// bits, so NaN payloads, -0, ±Inf and subnormals round-trip exactly.
type tableEntry struct {
	Cols []string   `json:"cols"`
	Rows []rowEntry `json:"rows"`
}

type rowEntry struct {
	Label string   `json:"label"`
	Vals  []uint64 `json:"vals"`
	Errs  []uint64 `json:"errs"`
}

// GetTable looks up a cached table. Like GetFloat, a malformed or
// unreadable entry is a miss, never an error; an entry is well-formed
// only if it is exactly the bytes PutTable writes for the table it
// decodes to.
func (c *Cache) GetTable(key string) (CachedTable, bool) {
	data, ok := c.read(key)
	if !ok {
		return CachedTable{}, false
	}
	var e tableEntry
	if json.Unmarshal(data, &e) != nil || !bytes.Equal(encodeTable(e), data) {
		c.corrupt(key)
		return CachedTable{}, false
	}
	t := CachedTable{Cols: e.Cols, Rows: mapNil(e.Rows, func(r rowEntry) CachedRow {
		return CachedRow{Label: r.Label, Vals: mapNil(r.Vals, math.Float64frombits), Errs: mapNil(r.Errs, math.Float64frombits)}
	})}
	c.hits.Add(1)
	return t, true
}

// PutTable stores a table under key. Labels must be valid UTF-8 to come
// back unchanged.
func (c *Cache) PutTable(key string, t CachedTable) {
	e := tableEntry{Cols: t.Cols, Rows: mapNil(t.Rows, func(r CachedRow) rowEntry {
		return rowEntry{Label: r.Label, Vals: mapNil(r.Vals, math.Float64bits), Errs: mapNil(r.Errs, math.Float64bits)}
	})}
	c.put(key, encodeTable(e))
}

// encodeTable is a table entry's canonical bytes.
func encodeTable(e tableEntry) []byte {
	data, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("trace: marshaling a table entry: %v", err)) // strings and integers always marshal
	}
	return append(data, '\n')
}

// mapNil applies f to every element of xs, keeping a nil slice nil.
func mapNil[A, B any](xs []A, f func(A) B) []B {
	if xs == nil {
		return nil
	}
	out := make([]B, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// read returns an entry's bytes, counting a miss when there are none. A
// missing entry is the ordinary miss and is not retried; any other read
// error is treated as transient (NFS hiccup, EMFILE) and retried with
// backoff before degrading to recomputation.
func (c *Cache) read(key string) ([]byte, bool) {
	for attempt := 1; ; attempt++ {
		data, err := os.ReadFile(c.path(key))
		if err == nil {
			return data, true
		}
		if errors.Is(err, fs.ErrNotExist) {
			c.misses.Add(1)
			return nil, false
		}
		if attempt >= cacheAttempts {
			c.errors.Add(1)
			c.misses.Add(1)
			return nil, false
		}
		c.backoff(attempt)
	}
}

// corrupt drops an entry whose bytes do not decode, so the recomputed
// value can take its place, and counts the lookup as a miss. No retry —
// re-reading the same bytes cannot help.
func (c *Cache) corrupt(key string) {
	os.Remove(c.path(key))
	c.errors.Add(1)
	c.misses.Add(1)
}

// put stores an entry atomically (write temp + rename) so readers never
// observe a torn entry. Transient failures are retried with backoff;
// persistent failures are silently dropped beyond the error counter — a
// cache that cannot write simply does not accelerate.
func (c *Cache) put(key string, data []byte) {
	for attempt := 1; ; attempt++ {
		if c.putOnce(key, data) {
			return
		}
		if attempt >= cacheAttempts {
			c.errors.Add(1)
			return
		}
		c.backoff(attempt)
	}
}

// putOnce is one attempt of the atomic temp-write-and-rename sequence.
func (c *Cache) putOnce(key string, data []byte) bool {
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return false
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}
