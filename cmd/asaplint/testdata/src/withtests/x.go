// Package withtests carries one schedgo violation in shipped code and a
// test file full of violations that asaplint must never see.
package withtests

func spawn(f func()) {
	go f()
}
