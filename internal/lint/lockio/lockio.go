// Package lockio protects the snapshot–probe–commit invariant from the
// concurrency refactor (DESIGN.md §9): transport I/O — Call, Probe,
// Serve on the transport layer, and the datagram plane's WriteTo,
// ReadFrom and ListenPacket (including raw net sockets) — must never
// happen while a sync.Mutex or sync.RWMutex is held. Holding a node's
// lock across a network round-trip serializes the probe path, and under
// the in-memory transport it can deadlock the virtual clock (the handler
// may need the same lock to answer); a datagram send under a lock stalls
// every packet handler contending for it. The legal shape is: lock,
// snapshot the state the request needs, unlock, do the I/O, re-lock,
// validate and commit.
//
// The analysis is the shared per-function may-held walk
// (lintutil.Walk): a lock counts as held from a Lock/RLock call until
// the matching Unlock/RUnlock on the same path, and a deferred Unlock
// holds to the end. Branches run on their own copies of the held set
// and are joined by union; a branch that returns ends its path, so an
// early-return guard (`Lock(); if c { Unlock(); return }`) does not
// release the lock for the code after it. Function literals are not
// entered — a closure handed to the scheduler runs later, outside the
// critical section. *_test.go files are exempt.
package lockio

import (
	"go/ast"
	"go/types"
	"strings"

	"asap/internal/lint/analysis"
	"asap/internal/lint/lintutil"
)

// Analyzer flags transport I/O performed under a mutex.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "forbid transport I/O (Call/Probe/Serve) while a sync.Mutex/RWMutex is held; " +
		"snapshot under the lock, release it, then probe (DESIGN.md §9)",
	Run: run,
}

// ioMethods are the transport-layer entry points that perform network
// round-trips (or bind sockets) and must run outside critical sections.
// Call/Probe/Serve are the RPC plane; WriteTo/ReadFrom/ListenPacket are
// the datagram plane (transport.PacketConn, udp sockets, raw net).
var ioMethods = map[string]bool{
	"Call": true, "Probe": true, "Serve": true,
	"WriteTo": true, "ReadFrom": true, "ListenPacket": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		if lintutil.IsTestFile(pass.Filename(f.Pos())) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lintutil.WalkLocks(pass.TypesInfo, fd.Body, recvKey, func(call *ast.CallExpr, acquires string, held lintutil.Held) {
				if acquires == "" && len(held) > 0 && isTransportIO(pass, call) {
					pass.Reportf(call.Pos(),
						"transport I/O while holding a mutex (%s): snapshot under the lock, release it, then probe (DESIGN.md §9)",
						strings.Join(held.Sorted(), ", "))
				}
			})
		}
	}
	return nil, nil
}

// recvKey identifies a mutex by the source text of its receiver
// expression (e.g. "n.mu"), which is how one function refers to one lock.
func recvKey(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", true
	}
	return types.ExprString(sel.X), true
}

// isTransportIO reports whether call is one of the I/O methods on the
// transport layer (a package whose import path ends in "transport" or
// "transport/udp") or on the standard net package (raw UDP sockets) —
// either a method on a concrete type or an interface method.
func isTransportIO(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := lintutil.Callee(pass.TypesInfo, call)
	if fn == nil || !ioMethods[fn.Name()] || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "net" || p == "transport" ||
		strings.HasSuffix(p, "/transport") || strings.HasSuffix(p, "/transport/udp")
}
