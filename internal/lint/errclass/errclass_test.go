package errclass

import (
	"testing"

	"asap/internal/lint/analysistest"
)

func TestErrclass(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "asap/internal/transport", "a")
}
