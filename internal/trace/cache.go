package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

// Cache is a content-addressed store of sweep scalars: the caller hashes
// everything that determines a grid cell's value (resolved spec material,
// seed, version salt) into a key, and the cache persists the value under
// that key (GetFloat/PutFloat). An entry is 17 bytes, the 16 hex digits of
// the value's exact IEEE-754 bit pattern and a newline, so a cache hit
// reproduces the recomputed figure byte for byte.
//
// The cache is strictly best-effort: unreadable, malformed or unwritable
// entries degrade to recomputation and are never an error. It is safe
// for concurrent use (distinct keys write distinct files; same-key
// writers race to an atomic rename of identical content). A warm sweep's
// cost is its lookups, so an entry is read without an os.File: one open,
// one read into an 18-byte buffer and one close (readEntry).
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

// Errors returns how many entries were unreadable or not in PutFloat's
// form (each also counts as a miss).
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

// GetFloat looks up a cached scalar. Only an entry in PutFloat's form,
// exactly 16 hex digits and a newline, is a hit. A missing entry is the
// ordinary miss and is not retried; any other read error is treated as
// transient (NFS hiccup, EMFILE) and retried with backoff before
// degrading to recomputation. An entry in any other form is deleted, so
// the recomputed value can take its place, and counted as an error; it is
// not retried, as re-reading the same bytes cannot help.
func (c *Cache) GetFloat(key string) (float64, bool) {
	var buf [scalarLen + 1]byte // a longer entry fills it
	for attempt := 1; ; attempt++ {
		n, err := readEntry(c.path(key), buf[:])
		switch {
		case err == nil:
			var bits [8]byte
			if _, herr := hex.Decode(bits[:], buf[:16]); herr == nil && n == scalarLen && buf[16] == '\n' {
				c.hits.Add(1)
				return math.Float64frombits(binary.BigEndian.Uint64(bits[:])), true
			}
			os.Remove(c.path(key))
		case errors.Is(err, fs.ErrNotExist):
			c.misses.Add(1)
			return 0, false
		case attempt < cacheAttempts:
			c.backoff(attempt)
			continue
		}
		c.errors.Add(1)
		c.misses.Add(1)
		return 0, false
	}
}

// scalarLen is the length of an entry in PutFloat's form.
const scalarLen = 17

// PutFloat stores a scalar under key as the 16 hex digits of its bits and
// a newline, atomically (write temp + rename) so readers never observe a
// torn entry. Transient failures are retried with backoff; persistent
// failures are silently dropped beyond the error counter — a cache that
// cannot write simply does not accelerate.
func (c *Cache) PutFloat(key string, v float64) {
	entry := fmt.Appendf(nil, "%016x\n", math.Float64bits(v))
	for attempt := 1; ; attempt++ {
		if c.putOnce(key, entry) {
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

// readEntry reads the entry file into buf and returns the bytes read. It
// opens, reads and closes the file through syscall: three system calls,
// without the os.File os.ReadFile sets up (poller registration, a stat
// for the size) for an entry that is 17 bytes long. One read suffices: an
// entry is renamed into place whole (putOnce), and a read of a regular
// file returns fewer bytes than asked only at its end, so an entry longer
// than buf fills it. The errors are the calls' own, so a missing entry is
// fs.ErrNotExist.
func readEntry(name string, buf []byte) (int, error) {
	fd, err := syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return 0, err
	}
	n, err := syscall.Read(fd, buf)
	for err == syscall.EINTR {
		n, err = syscall.Read(fd, buf)
	}
	syscall.Close(fd)
	return n, err
}
