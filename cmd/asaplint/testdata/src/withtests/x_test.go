package withtests

import "time"

// Wall-mode tests sleep and spawn for real; the loader never reads this
// file, so neither line is a finding.
func wallWait(done chan struct{}) {
	go close(done)
	time.Sleep(time.Millisecond)
}
