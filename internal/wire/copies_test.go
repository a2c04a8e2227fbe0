package wire

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestVetReportsCopies runs go vet over testdata/copies, which copies a
// Sealer, an Opener, a ReplayWindow and the monotonic values in every
// way the old by-value flow could: the copylocks check must report
// exactly the lines marked want, each with a message matching its
// pattern. This is what keeps the noCopy markers wired up.
func TestVetReportsCopies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet; skipped in -short")
	}
	src, err := os.ReadFile("testdata/copies/copies.go")
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]*regexp.Regexp{}
	for i, line := range strings.Split(string(src), "\n") {
		if _, pat, ok := strings.Cut(line, "// want `"); ok {
			wants[i+1] = regexp.MustCompile(strings.TrimSuffix(pat, "`"))
		}
	}
	out, err := exec.Command("go", "vet", "./testdata/copies").CombinedOutput()
	if err == nil {
		t.Fatalf("go vet found nothing to report:\n%s", out)
	}
	got := map[int]string{}
	for _, m := range regexp.MustCompile(`copies\.go:(\d+):\d+: (.*)`).FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[1])
		got[line] = m[2]
	}
	if len(got) == 0 {
		t.Fatalf("go vet failed without a copylocks report:\n%s", out)
	}
	for line, re := range wants {
		if !re.MatchString(got[line]) {
			t.Errorf("copies.go:%d: want a report matching %q, got %q", line, re, got[line])
		}
	}
	for line, msg := range got {
		if wants[line] == nil {
			t.Errorf("copies.go:%d: unexpected report %q", line, msg)
		}
	}
}
