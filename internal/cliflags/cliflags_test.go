package cliflags

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseTenantKeysFile(t *testing.T) {
	specs, err := ParseTenantKeysFile([]byte(
		"# fleet tenants\n" +
			"acme=secret:4:1048576\n" +
			"\n" +
			"  beta=bk  # trailing comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs, want 2: %+v", len(specs), specs)
	}
	if specs[0].Name != "acme" || specs[0].Key != "secret" ||
		specs[0].MaxSessions != 4 || specs[0].MaxStoreBytes != 1048576 {
		t.Errorf("acme spec = %+v", specs[0])
	}
	if specs[1].Name != "beta" || specs[1].Key != "bk" {
		t.Errorf("beta spec = %+v", specs[1])
	}

	// An empty (or all-comment) file is an explicit "auth off", not an
	// error: nil specs, nil error.
	for _, empty := range []string{"", "\n\n", "# only comments\n  # more\n"} {
		specs, err := ParseTenantKeysFile([]byte(empty))
		if err != nil || specs != nil {
			t.Errorf("empty file %q: specs=%v err=%v, want nil/nil", empty, specs, err)
		}
	}

	// Grammar errors surface, same as -tenant-keys.
	if _, err := ParseTenantKeysFile([]byte("acme\n")); err == nil {
		t.Error("keyless entry accepted")
	}
	if _, err := ParseTenantKeysFile([]byte("acme=k:notanumber\n")); err == nil {
		t.Error("malformed quota accepted")
	}
}

// TestTenantKeysHashInsideEntry: a '#' inside a name or key is refused
// by both parsers instead of cutting the key short, and a '#' after
// whitespace is a comment in both.
func TestTenantKeysHashInsideEntry(t *testing.T) {
	for _, spec := range []string{"alice=s3cr#t", "al#ce=k", "alice=k#", "acme=k,alice=#x:2"} {
		if specs, err := ParseTenantKeysFile([]byte(spec + "\n")); err == nil {
			t.Errorf("file %q accepted as %+v", spec, specs)
		}
		if specs, err := ParseTenantKeys(spec); err == nil {
			t.Errorf("flag %q accepted as %+v", spec, specs)
		}
	}
	want := []TenantSpec{{Name: "alice", Key: "s3cret", MaxSessions: 2}}
	for _, spec := range []string{"alice=s3cret:2 # prod", "alice=s3cret:2\t#prod", "alice=s3cret:2"} {
		if specs, err := ParseTenantKeysFile([]byte(spec)); err != nil || !reflect.DeepEqual(specs, want) {
			t.Errorf("file %q = %+v, %v; want %+v", spec, specs, err, want)
		}
		if specs, err := ParseTenantKeys(spec); err != nil || !reflect.DeepEqual(specs, want) {
			t.Errorf("flag %q = %+v, %v; want %+v", spec, specs, err, want)
		}
	}
}

// FuzzParseTenantKeys: neither parser panics, and on a single line the
// flag and file grammars agree — the same specs, or both refuse.
func FuzzParseTenantKeys(f *testing.F) {
	for _, seed := range []string{"", "acme=secret:4:1048576", "  beta=bk  # trailing comment",
		"alice=s3cr#t", "a=b,c=d:1", "# only a comment", "x=y:1:2:3", "n:m=k", "a=b,,c=d", "a=b\t#c#d", "\r#"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fromFile, fileErr := ParseTenantKeysFile([]byte(spec))
		fromFlag, flagErr := ParseTenantKeys(spec)
		if strings.Contains(spec, "\n") {
			return
		}
		if (fileErr == nil) != (flagErr == nil) || !reflect.DeepEqual(fromFile, fromFlag) {
			t.Fatalf("%q: file %+v (%v), flag %+v (%v)", spec, fromFile, fileErr, fromFlag, flagErr)
		}
	})
}
