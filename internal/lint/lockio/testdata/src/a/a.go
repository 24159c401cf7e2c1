package a

import (
	"sync"

	"asap/internal/transport"
)

type node struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	tr   *transport.Client
	peer string
}

// bad performs a round-trip inside the critical section.
func bad(n *node) {
	n.mu.Lock()
	_, _ = n.tr.Call(n.peer, nil) // want "transport I/O while holding a mutex"
	n.mu.Unlock()
}

// badDefer holds the lock to function end via defer.
func badDefer(n *node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tr.Probe(n.peer) // want "transport I/O while holding a mutex"
}

// badRead holds a read lock across the probe.
func badRead(n *node) int {
	n.rw.RLock()
	defer n.rw.RUnlock()
	return n.tr.Probe(n.peer) // want "transport I/O while holding a mutex"
}

// badBranch reaches the I/O through a nested block.
func badBranch(n *node, on bool) {
	n.mu.Lock()
	if on {
		_ = n.tr.Serve(n.peer) // want "transport I/O while holding a mutex"
	}
	n.mu.Unlock()
}

// badAfterGuard releases only on the early-return branch: the
// fall-through path still holds the lock when it probes.
func badAfterGuard(n *node, stop bool) {
	n.mu.Lock()
	if stop {
		n.mu.Unlock()
		return
	}
	_ = n.tr.Probe(n.peer) // want "transport I/O while holding a mutex"
	n.mu.Unlock()
}

// badAfterSwitchReturn releases in a case that returns; the other cases
// and the missing default fall through still holding it.
func badAfterSwitchReturn(n *node, k int) {
	n.mu.Lock()
	switch k {
	case 0:
		n.mu.Unlock()
		return
	case 1:
		n.peer = ""
	}
	_ = n.tr.Probe(n.peer) // want "transport I/O while holding a mutex"
	n.mu.Unlock()
}

// badVar performs the round-trip in a var declaration.
func badVar(n *node) error {
	n.mu.Lock()
	var _, err = n.tr.Call(n.peer, nil) // want "transport I/O while holding a mutex"
	n.mu.Unlock()
	return err
}

// badSend performs the round-trip while computing a channel send.
func badSend(n *node, out chan error) {
	n.mu.Lock()
	out <- reply(n.tr.Call(n.peer, nil)) // want "transport I/O while holding a mutex"
	n.mu.Unlock()
}

func reply(_ *transport.Message, err error) error { return err }

// goodGuard probes on the early-return branch only after releasing.
func goodGuard(n *node, stop bool) {
	n.mu.Lock()
	if stop {
		to := n.peer
		n.mu.Unlock()
		_ = n.tr.Probe(to)
		return
	}
	n.mu.Unlock()
	_ = n.tr.Probe(n.peer)
}

// good is the snapshot–probe–commit shape: copy what the request needs
// under the lock, release it, then do the I/O.
func good(n *node) {
	n.mu.Lock()
	to := n.peer
	n.mu.Unlock()
	_, _ = n.tr.Call(to, nil)
}

// goodRead snapshots under a read lock, then probes unlocked.
func goodRead(n *node) int {
	n.rw.RLock()
	to := n.peer
	n.rw.RUnlock()
	return n.tr.Probe(to)
}

// goodClosure builds a closure under the lock but runs it after
// releasing: the analyzer does not descend into function literals.
func goodClosure(n *node) {
	n.mu.Lock()
	probe := func() int { return n.tr.Probe(n.peer) }
	n.mu.Unlock()
	_ = probe()
}
