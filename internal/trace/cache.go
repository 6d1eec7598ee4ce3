package trace

import (
	"crypto/sha256"
	"encoding/hex"
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
// seed, version salt) into a key, and the cache persists the result's
// bytes under that key: a grid cell's scalar (GetFloat/PutFloat).
// Scalars round-trip through their exact IEEE-754 bit pattern, so a cache
// hit reproduces the recomputed figure byte for byte.
//
// The cache is strictly best-effort: unreadable, corrupt or unwritable
// entries degrade to recomputation and are never an error. It is safe
// for concurrent use (distinct keys write distinct files; same-key
// writers race to an atomic rename of identical content). A warm sweep's
// cost is its lookups, so an entry is read without an os.File: one open,
// one read into a small buffer and one close (readEntry).
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
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// path maps a key to its entry file, sharded by the first hex byte so no
// single directory grows unboundedly.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:])
}

// get looks up the entry under key and hands its bytes to decode, which
// reports whether they are well-formed. A missing, unreadable or
// malformed entry is a miss, never an error; a malformed one is deleted,
// so the recomputed value can take its place.
func (c *Cache) get(key string, decode func(data []byte) bool) bool {
	data, ok := c.read(key)
	if !ok {
		return false
	}
	if !decode(data) {
		c.corrupt(key)
		return false
	}
	c.hits.Add(1)
	return true
}

// GetFloat looks up a cached scalar.
func (c *Cache) GetFloat(key string) (v float64, ok bool) {
	ok = c.get(key, func(data []byte) bool {
		s := strings.TrimSpace(string(data))
		bits, err := strconv.ParseUint(s, 16, 64)
		if err != nil || len(s) != 16 {
			return false
		}
		v = math.Float64frombits(bits)
		return true
	})
	return v, ok
}

// PutFloat stores a scalar under key as the 16 hex digits of its bits.
func (c *Cache) PutFloat(key string, v float64) {
	c.put(key, fmt.Appendf(nil, "%016x\n", math.Float64bits(v)))
}

// read returns an entry's bytes, counting a miss when there are none. A
// missing entry is the ordinary miss and is not retried; any other read
// error is treated as transient (NFS hiccup, EMFILE) and retried with
// backoff before degrading to recomputation.
func (c *Cache) read(key string) ([]byte, bool) {
	for attempt := 1; ; attempt++ {
		data, err := readEntry(c.path(key))
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

// put stores data under key atomically (write temp + rename) so readers
// never observe a torn entry. Transient failures are retried with
// backoff; persistent failures are silently dropped beyond the error
// counter — a cache that cannot write simply does not accelerate.
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
