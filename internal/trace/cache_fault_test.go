package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCacheConcurrentSameKeyWriters races writers on one key (run under
// -race in CI): same-key writers must converge on one readable entry.
func TestCacheConcurrentSameKeyWriters(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("contended"))
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.PutFloat(key, 42.5)
				if v, ok := c.GetFloat(key); ok && v != 42.5 {
					t.Errorf("read %v mid-race, want 42.5", v)
				}
			}
		}()
	}
	wg.Wait()
	v, ok := c.GetFloat(key)
	if !ok || v != 42.5 {
		t.Fatalf("after the race: (%v, %v), want (42.5, true)", v, ok)
	}
	if c.Errors() != 0 {
		t.Errorf("%d errors from same-key contention, want 0", c.Errors())
	}
}

// TestCacheCorruptEntryNotRetried sharpens TestCacheCorruptEntryRecovers:
// the bad file is removed without invoking the retry/backoff machinery —
// rereading the same bytes cannot help.
func TestCacheCorruptEntryNotRetried(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("poisoned"))
	c.PutFloat(key, 7.25)
	p := filepath.Join(c.Dir(), key[:2], key[2:])
	if err := os.WriteFile(p, []byte("not a float\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	backoffs := 0
	c.Backoff = func(int) { backoffs++ }
	if _, ok := c.GetFloat(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if backoffs != 0 {
		t.Errorf("corrupt entry retried %d times, want 0 (content errors are not transient)", backoffs)
	}
	if c.Errors() != 1 {
		t.Errorf("Errors = %d, want 1", c.Errors())
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed")
	}
	c.PutFloat(key, 7.25)
	if v, ok := c.GetFloat(key); !ok || v != 7.25 {
		t.Fatalf("after rewrite: (%v, %v), want (7.25, true)", v, ok)
	}
}

// TestCachePutRetriesWithBackoff forces a persistent non-ENOENT failure
// (the shard path occupied by a regular file, so MkdirAll fails) and
// checks the bounded retry loop calls the injected backoff between
// attempts before giving up.
func TestCachePutRetriesWithBackoff(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("blocked"))
	// Occupy the shard directory's path with a regular file.
	if err := os.WriteFile(filepath.Join(c.Dir(), key[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var attempts []int
	c.Backoff = func(a int) { attempts = append(attempts, a) }
	c.PutFloat(key, 1.5)
	if len(attempts) != cacheAttempts-1 {
		t.Fatalf("backoff called %d times, want %d (between %d attempts)", len(attempts), cacheAttempts-1, cacheAttempts)
	}
	for i, a := range attempts {
		if a != i+1 {
			t.Errorf("backoff attempt %d reported as %d", i+1, a)
		}
	}
	if c.Errors() != 1 {
		t.Errorf("Errors = %d, want 1 (counted once after the final attempt)", c.Errors())
	}
}

// TestCacheGetRetriesTransientReadErrors drives GetFloat's retry loop the
// same way: a directory where the entry file should be yields a non-ENOENT
// read error, which is treated as transient.
func TestCacheGetRetriesTransientReadErrors(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("unreadable"))
	// Make the entry path a directory: ReadFile fails with EISDIR.
	if err := os.MkdirAll(filepath.Join(c.Dir(), key[:2], key[2:]), 0o755); err != nil {
		t.Fatal(err)
	}
	backoffs := 0
	c.Backoff = func(int) { backoffs++ }
	if _, ok := c.GetFloat(key); ok {
		t.Fatal("unreadable entry served as a hit")
	}
	if backoffs != cacheAttempts-1 {
		t.Errorf("backoff called %d times, want %d", backoffs, cacheAttempts-1)
	}
	if c.Errors() != 1 || c.Misses() != 1 {
		t.Errorf("Errors = %d, Misses = %d, want 1, 1", c.Errors(), c.Misses())
	}
}

// TestCacheMissingEntryNotRetried pins that the ordinary miss path stays
// cheap: no retry, no backoff, no error count.
func TestCacheMissingEntryNotRetried(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backoffs := 0
	c.Backoff = func(int) { backoffs++ }
	if _, ok := c.GetFloat(Key([]byte("absent"))); ok {
		t.Fatal("hit on an absent key")
	}
	if backoffs != 0 {
		t.Errorf("plain miss invoked backoff %d times", backoffs)
	}
	if c.Errors() != 0 || c.Misses() != 1 {
		t.Errorf("Errors = %d, Misses = %d, want 0, 1", c.Errors(), c.Misses())
	}
}

// TestCacheEntryAroundReadBuffer reads a scalar entry cut one byte
// short, whole, one byte longer (the 18-byte buffer an entry is read into
// is full), and 32 and 33 bytes long: only the 17-byte entry is a hit, and
// every other is deleted and counted as an error, not served cut off.
func TestCacheEntryAroundReadBuffer(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entry := []byte("4059000000000000\n") // 100
	for _, n := range []int{16, 17, 18, 32, 33} {
		data := append(entry[:min(n, len(entry)):min(n, len(entry))], bytes.Repeat([]byte{'0'}, max(n-len(entry), 0))...)
		key := Key(data)
		p := filepath.Join(c.Dir(), key[:2], key[2:])
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, ok := c.GetFloat(key)
		if want := n == len(entry); ok != want || ok && v != 100 {
			t.Errorf("a %d-byte entry %q: (%v, %v), want a hit %v", n, data, v, ok, want)
		}
		if _, err := os.Stat(p); ok == os.IsNotExist(err) {
			t.Errorf("a %d-byte entry: hit %v, yet the entry's stat says %v", n, ok, err)
		}
	}
	if c.Hits() != 1 || c.Errors() != 4 || c.Misses() != 4 {
		t.Errorf("Hits = %d, Errors = %d, Misses = %d, want 1, 4, 4", c.Hits(), c.Errors(), c.Misses())
	}
}
