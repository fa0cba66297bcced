package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"epfis/internal/catalog"
)

// FuzzDigestDoc holds the digest document every pull decodes from peer
// bytes, and the stamp text inside it. Every input is rejected or
// round-trips: an accepted digest, encoded and decoded again, reports the
// same node, epoch and versions; an accepted stamp renders to text that
// parses back to it. Nothing panics.
func FuzzDigestDoc(f *testing.F) {
	store := catalog.NewStore()
	if _, err := store.PutStamped(testEntry("t", "c0", 500), Stamp{Epoch: 3, Origin: "node-a"}); err != nil {
		f.Fatal(err)
	}
	if _, err := store.Put(testEntry("t", "c1", 600)); err != nil {
		f.Fatal(err)
	}
	if _, _, err := store.Merge(map[string]catalog.Incoming{"t.c2": {Version: catalog.Version{Stamp: Stamp{Epoch: 5, Origin: "x/y"}, Tombstone: true}}}); err != nil {
		f.Fatal(err)
	}
	n, err := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: store})
	if err != nil {
		f.Fatal(err)
	}
	doc, err := n.digest()
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(doc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"entries":{"t.c":{"crc":1,"stamp":"18446744073709551615/"}}}`))
	f.Add([]byte(`7/node-a`))
	f.Add([]byte(`/`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Stamp
		if s.UnmarshalText(data) == nil {
			text, err := s.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			var back Stamp
			if err := back.UnmarshalText(text); err != nil || back != s {
				t.Fatalf("stamp %+v renders %q, which parses to %+v (%v)", s, text, back, err)
			}
		}

		var d digestDoc
		if json.Unmarshal(data, &d) != nil {
			return
		}
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted digest does not encode: %v", err)
		}
		var back digestDoc
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded digest rejected: %v", err)
		}
		if back.Node != d.Node || back.Epoch != d.Epoch || !reflect.DeepEqual(back.versions(), d.versions()) {
			t.Fatalf("digest round trip changed it: %+v, want %+v", back, d)
		}
	})
}
