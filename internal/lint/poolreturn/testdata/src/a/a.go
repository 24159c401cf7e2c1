package a

import (
	"errors"

	"asap/internal/transport"
)

type node struct {
	tr   string
	keep *transport.Message
	out  chan *transport.Message
}

// good releases on the single path.
func good() {
	m := transport.AcquireMessage()
	m.Type = 1
	transport.ReleaseMessage(m)
}

// goodReturn transfers ownership to the caller.
func goodReturn() *transport.Message {
	m := transport.AcquireMessage()
	m.Type = 2
	return m
}

// goodErrorPath releases on both the error path and the happy path.
func goodErrorPath(fail bool) error {
	m := transport.AcquireMessage()
	if fail {
		transport.ReleaseMessage(m)
		return errors.New("boom")
	}
	transport.ReleaseMessage(m)
	return nil
}

// goodDefer covers every path with one deferred release.
func goodDefer(fail bool) error {
	m := transport.AcquireMessage()
	defer transport.ReleaseMessage(m)
	if fail {
		return errors.New("boom")
	}
	return nil
}

// goodBorrow lends the message to a call, then releases it.
func goodBorrow() {
	m := transport.AcquireMessage()
	resp, _ := transport.Call("peer", m)
	transport.ReleaseMessage(m)
	_ = resp
}

// goodStore hands the message to longer-lived state.
func goodStore(n *node) {
	m := transport.AcquireMessage()
	n.keep = m
}

// goodSend hands the message to a channel receiver.
func goodSend(n *node) {
	m := transport.AcquireMessage()
	n.out <- m
}

// goodSwitch releases in every case, including default.
func goodSwitch(k int) {
	m := transport.AcquireMessage()
	switch k {
	case 1:
		transport.ReleaseMessage(m)
	default:
		transport.ReleaseMessage(m)
	}
}

// goodSelect hands the message off in one clause and releases it in the
// other; a select without default always runs one of them.
func goodSelect(n *node, done chan struct{}) {
	m := transport.AcquireMessage()
	select {
	case n.out <- m:
	case <-done:
		transport.ReleaseMessage(m)
	}
}

// bad forgets the release entirely.
func bad() {
	m := transport.AcquireMessage()
	m.Type = 3
} // want "pooled value m reaches the end of the function"

// badVar binds the acquire in a var declaration and forgets it.
func badVar() {
	var m = transport.AcquireMessage()
	m.Type = 4
} // want "pooled value m reaches the end of the function"

// goodVar is badVar's released twin.
func goodVar() {
	var m = transport.AcquireMessage()
	m.Type = 4
	transport.ReleaseMessage(m)
}

// badErrorPath releases on the happy path only.
func badErrorPath(fail bool) error {
	m := transport.AcquireMessage()
	if fail {
		return errors.New("boom") // want "pooled value m reaches this return"
	}
	transport.ReleaseMessage(m)
	return nil
}

// badBranchLeak releases only inside one branch that falls through.
func badBranchLeak(fail bool) {
	m := transport.AcquireMessage()
	if fail {
		transport.ReleaseMessage(m)
	}
} // want "pooled value m reaches the end of the function"

// badSwitch leaks through the default case.
func badSwitch(k int) {
	m := transport.AcquireMessage()
	switch k {
	case 1:
		transport.ReleaseMessage(m)
	default:
	}
} // want "pooled value m reaches the end of the function"

// badTwo leaks one of two acquires.
func badTwo() *transport.Message {
	a := transport.AcquireMessage()
	b := transport.AcquireMessage()
	_ = b
	return a // want "pooled value b reaches this return"
}

// closureScopes are analyzed independently: the literal's leak is the
// literal's, not the enclosing function's.
func closureScopes() func() {
	outer := transport.AcquireMessage()
	fn := func() {
		inner := transport.AcquireMessage()
		_ = inner
	} // want "pooled value inner reaches the end of the function"
	transport.ReleaseMessage(outer)
	return fn
}
