// Interrupts: the first SIGINT or SIGTERM stops the run in order and
// flushes what it has; a second one exits at once.

package main

import (
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// interrupter turns the first SIGINT or SIGTERM into an orderly stop.
// Every cell arms it through scenario.Opts.Watchdog, the hook the
// -cell-timeout-ms watchdog uses: at the signal every armed cell's
// interrupt is called, and a cell that arms later is interrupted as it
// arms, so it starts no simulation. Interrupted cells fail as timed-out
// ones do (NaN plus a CellError); main skips the specs it has not begun
// and exits 3 once the partial tables, metrics and profiles are out. A
// second signal exits at once with 128 plus its number.
type interrupter struct {
	done chan struct{} // closed at the first signal

	mu   sync.Mutex
	next uint64
	live map[uint64]func() // interrupts of the cells running now
}

// watchInterrupts installs the signal handler.
func watchInterrupts(log *slog.Logger) *interrupter {
	it := &interrupter{done: make(chan struct{}), live: map[uint64]func(){}}
	sig := make(chan os.Signal, 2) // the two signals the handler acts on
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Warn("interrupted: stopping the running cells and writing what is done; signal again to exit at once",
			"signal", s.String())
		it.mu.Lock()
		close(it.done)
		for _, interrupt := range it.live {
			interrupt()
		}
		it.mu.Unlock()
		s = <-sig
		os.Exit(128 + int(s.(syscall.Signal)))
	}()
	return it
}

// fired reports whether the first signal has arrived.
func (it *interrupter) fired() bool {
	select {
	case <-it.done:
		return true
	default:
		return false
	}
}

// watchdog returns the scenario.Opts.Watchdog that arms every cell
// against the signal and, when timeout is not nil, against it too.
func (it *interrupter) watchdog(timeout func(interrupt func()) (stop func())) func(interrupt func()) (stop func()) {
	return func(interrupt func()) (stop func()) {
		it.mu.Lock()
		if it.fired() {
			it.mu.Unlock()
			interrupt()
			return func() {}
		}
		id := it.next
		it.next++
		it.live[id] = interrupt
		it.mu.Unlock()
		stopTimeout := func() {}
		if timeout != nil {
			stopTimeout = timeout(interrupt)
		}
		return func() {
			stopTimeout()
			it.mu.Lock()
			delete(it.live, id)
			it.mu.Unlock()
		}
	}
}
