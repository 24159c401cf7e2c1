package lockorder

import (
	"testing"

	"asap/internal/lint/analysistest"
)

func TestDeadlockPair(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "deadlock")
}

func TestClean(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "clean")
}

func TestInterprocedural(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "interproc")
}
