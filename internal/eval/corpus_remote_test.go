package eval

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
	"repro/internal/workloads/corpus"
)

// TestRemoteCorpusMatchesLocal pins that the remote corpus runner
// produces the same outcomes (program, global, label, verdict) as the
// in-process one — the accuracy report and baseline gate must not care
// which side of the HTTP boundary the engine ran on.
func TestRemoteCorpusMatchesLocal(t *testing.T) {
	progs := corpus.Suite(corpus.DefaultSeed, 1)
	local := RunCorpus(progs, Options(1))

	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	remote, err := RunCorpusRemote(context.Background(), &server.Client{Base: ts.URL}, progs, 1)
	if err != nil {
		t.Fatal(err)
	}

	if len(local.Outcomes) != len(remote.Outcomes) {
		t.Fatalf("outcome counts differ: local %d, remote %d", len(local.Outcomes), len(remote.Outcomes))
	}
	for i := range local.Outcomes {
		l, r := local.Outcomes[i], remote.Outcomes[i]
		if l != r {
			t.Errorf("outcome %d differs:\nlocal:  %+v\nremote: %+v", i, l, r)
		}
	}

	lc, lt := local.Accuracy()
	rc, rt := remote.Accuracy()
	if lc != rc || lt != rt {
		t.Errorf("accuracy differs: local %d/%d, remote %d/%d", lc, lt, rc, rt)
	}
}
