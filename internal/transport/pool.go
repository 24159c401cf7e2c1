package transport

import "sync"

// Message envelope pooling for the in-memory deliver path. At scale the
// dominant transport allocation is the Message struct itself: every
// ping (keepalives included) and voice batch allocates an envelope that
// dies as soon as the call returns. Hot-path senders acquire their
// request (and release the response) here instead.
//
// Ownership is strictly caller-releases: the party that obtained a
// Message from AcquireMessage — or received one as a Call response —
// may release it once it is done reading, and must not touch it
// afterwards. Handlers never retain a request past their return
// (internal/core copies what it stores), which is what makes releasing
// after Call safe. Releasing is always optional; an unreleased message
// is garbage-collected as before.

var msgPool = sync.Pool{New: func() interface{} { return new(Message) }}

// AcquireMessage returns a zeroed Message, recycled when possible.
func AcquireMessage() *Message {
	return msgPool.Get().(*Message)
}

// ReleaseMessage returns m to the pool. All fields are cleared — slice
// references are dropped, not reused, so data shared with other holders
// (forwarded frames, stored close sets) stays valid.
func ReleaseMessage(m *Message) {
	if m == nil {
		return
	}
	*m = Message{}
	msgPool.Put(m)
}
