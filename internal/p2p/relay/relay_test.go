package relay

import "testing"

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		SqrtPush:     "sqrt-push",
		PushAll:      "push-all",
		AnnounceOnly: "announce-only",
		Compact:      "compact",
		Hybrid:       "hybrid",
		// Unknown modes must render visibly — run-dir metadata embeds
		// the mode name, and an empty or bare "unknown" string hides
		// which value leaked through.
		Mode(9):  "unknown(9)",
		Mode(-1): "unknown(-1)",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
	for _, m := range Modes() {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), back, err)
		}
	}
	if _, err := ParseMode("flood"); err == nil {
		t.Error("ParseMode must reject unknown names")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true},
		{Config{Mode: Compact, FallbackThreshold: 0.9}, true},
		{Config{Mode: Hybrid, PushFraction: 1}, true},
		{Config{Mode: Mode(42)}, false},
		{Config{PushFraction: -0.1}, false},
		{Config{FallbackThreshold: 1.5}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
	if _, err := New(Config{Mode: Mode(42)}); err == nil {
		t.Error("New must reject unknown modes")
	}
}
