package protosync

import (
	"testing"

	"asap/internal/lint/analysistest"
)

func TestProtosync(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "asap/internal/transport", "a")
}

func TestProtosyncMissingStringAndSentinel(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "nostring")
}
