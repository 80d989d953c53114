package lint_test

import (
	"testing"

	"kagura/internal/lint"
	"kagura/internal/lint/linttest"
)

// TestBoundedDecode runs the fixture: make() sized by raw wire reads is
// flagged (including the lower-bound-only guard and a hand-rolled count
// helper); counts from wire.(*Reader).Count/Count16 or a real comparison
// pass.
func TestBoundedDecode(t *testing.T) {
	linttest.Run(t, lint.BoundedDecode, "testdata/src/boundeddecode", "kagura/internal/decodefixture")
}
