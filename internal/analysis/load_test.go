package analysis

import (
	"go/build"
	"go/constant"
	"go/types"
	"testing"
)

// TestLoadHonoursBuildConstraints loads the buildtags fixture for an amd64
// and an arm64 target: each build type-checks with exactly one body of sum,
// the one the go command would compile, and the //go:build ignore generator
// (package main, which would make the directory two packages) is never read.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	saved := build.Default.GOARCH
	defer func() { build.Default.GOARCH = saved }()
	for arch, want := range map[string]string{"amd64": "amd64", "arm64": "other"} {
		build.Default.GOARCH = arch
		pkgs, err := Load("testdata/src/buildtags", "")
		if err != nil {
			t.Fatalf("GOARCH=%s: %v", arch, err)
		}
		if len(pkgs) != 1 || len(pkgs[0].Files) != 2 {
			t.Fatalf("GOARCH=%s: want one package of 2 files, got %d packages", arch, len(pkgs))
		}
		body, ok := pkgs[0].Types.Scope().Lookup("body").(*types.Const)
		if !ok || constant.StringVal(body.Val()) != want {
			t.Errorf("GOARCH=%s: loaded the wrong body of sum (%v)", arch, body)
		}
	}
}
