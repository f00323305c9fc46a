package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// registryPins are the SHA-256 digests of each registered experiment's
// json.Marshal output at seed 1, plus the spot, chaos and serverless
// grids at two reps. A change to any simulated outcome moves a pin; a
// change that should not (a refactor, a performance fix) must leave
// them all in place. renderPins hold the same cases' Render() text, so
// a change to a renderer alone moves a pin too.
var registryPins = map[string]string{
	"table1":            "1d132785217027c4dff72cc8acddf6eddc8114010065c217d8b7159e33b9df0d",
	"fig5":              "963f1e832499d01ed7bee4a909a2c3e19255a40ad4bfc4ee787fc76585ea7c55",
	"fig6":              "03a5b5d3ae65b8f133235d9e5b6e9a50e66676f674f378840175c6e1725c1c94",
	"penalty-n":         "b36f8eb3b110c0771434c71b740f2da482f882ad21eadcc9a564ca2f4f2eb188",
	"billing":           "091057efe6b08b424bc0fbd2419a77663bdeaac3ded445bff4b4389ea439cd35",
	"policies":          "5abf907b389be9f0003e63ede61a7450b8cc1b668905e14cd8a7aa42010c3943",
	"market":            "de03546456212f5152aa6151bb5ccdd0f0abc2b0a6fff4201912acfac3e65f47",
	"suspension":        "94fbacade0116586779d988e5599991163379c00cfa377c72909f664ba799628",
	"realistic":         "c5ed10f89f8d85b44c6187355c9a174ebdd86dd33dbe3ecaf4081b0ebc991732",
	"services":          "ec7b2f19d0a41bf78b962a42187df481648ce56ac8c90eb91f35c3232330a458",
	"serverless":        "be21401db117ac093e8275b944ed851bb8b52779ad7da9c98e752f8e423a7cee",
	"spot":              "6dcf177d2eb69bacf02ef9635d678935b360539dd97db21bd63d5f8fe79c3e84",
	"chaos":             "eed19ac134a8f3a5246ec2c93779a04fc2fb53fb523d3c87ab1d839a558a48d2",
	"scale":             "ce1b6054d8ef6582f442a9e229e2fe896dc1be22920a7e911090265cee44f00a",
	"sweep":             "d30d5423ccb33d79a9e281d106405a3e9aac303ac5f061fa0d164e7f8f2280b3",
	"spot/reps=2":       "9865aa9d313462fd83f0de1b5f48d04d10f956b54d502d898d76c177254c32c9",
	"serverless/reps=2": "36c693d7004397c91598954862e6d6c8436adf6f36f45357e4d8463180f48bef",
	"chaos/reps=2":      "1918b721308de6b77ad81525f40746d831fbf155a187fd1e881493768285cad8",
}

var renderPins = map[string]string{
	"table1":            "09961c8c9202853cd072a6acea0513f0559cc89dbb3c57441e5c382bf79b0cb1",
	"fig5":              "61bead279d583dbf89f878964d3f904ad64980e0bab62f03756d7b054f5007bc",
	"fig6":              "cc72c4c130c81645feb8e074e044e4a0a0b5b5bb63a469389a845b3b8db3faa9",
	"penalty-n":         "d2be363074e45283232c0694158e39e0cbf86b322ff60ae7f9d7f311920803e3",
	"billing":           "2313b01ee6d4c594d807fea10c36888ad58922e7d8624be171a729c856045d7d",
	"policies":          "5f92f0bba394c856d8831d10b70a3673e363ceccd4d10aa10872d13d29c381df",
	"market":            "01507cc42dfda9e776c7ab18ed3ebc761a28569a2ada774e80a8ad589c61213e",
	"suspension":        "6f606ac2fe868868f488ac59513783ee780124966f10a879013c3a78cad55e2b",
	"realistic":         "34f42e2db6ed8b9ff80319e571f7d72241a6e639b4ef51b9c3403fa7f8a96b2d",
	"services":          "792f692cf96373a593e9ee2c2fee2b3f7414e1bc0c5f78a77388361408289e8f",
	"serverless":        "520611c587a486b9264ee1731b6b750d4726f0c21fb7121d317ff33010dfece7",
	"spot":              "aa7e8b3404da69230ea9013f3df3b88e340c4ed7549b36dd508101dd41c599ce",
	"chaos":             "2452a70d71dd1280aa2c7289525dd6d2c3a58c1b669dca2b9133a8e76267685d",
	"scale":             "0f63c11677a9dcdc72b465fa1007f3a4f62883c265613a504f46032b20d181bd",
	"sweep":             "ec4b16bd03a0f62e139f37a5a2eb0bdeff58023f5807bd2bd2ac142142d8da21",
	"spot/reps=2":       "a818b22c8436692b609c7d30b38798c9c9ea6a1b4f2ef0a2ef3f5bbefa782d0d",
	"serverless/reps=2": "2a0f9ad14f9369c17477b489c46925efc906abc89de866d75fd2a9727d8b2dd6",
	"chaos/reps=2":      "414ffe0ab24b1193d40c970f92c5b75b32810937487b84ae06f9472498d589d6",
}

// TestRegistryWorkerInvariance runs every registered experiment at
// seed 1, and the spot, chaos and serverless grids again at two reps,
// with one worker and with four. Each case must marshal to the same
// JSON bytes and render the same text at both worker counts, and both
// must hash to the case's pins.
func TestRegistryWorkerInvariance(t *testing.T) {
	type rcase struct {
		name string
		e    Experiment
		opt  Options
	}
	var cases []rcase
	for _, e := range All() {
		cases = append(cases, rcase{e.Name, e, Options{}})
	}
	for _, name := range []string{"spot", "serverless", "chaos"} {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		cases = append(cases, rcase{name + "/reps=2", e, Options{Reps: 2}})
	}
	if len(cases) != len(registryPins) || len(cases) != len(renderPins) {
		t.Errorf("%d cases, %d JSON pins, %d render pins: a case has no pin",
			len(cases), len(registryPins), len(renderPins))
	}
	for _, c := range cases {
		var base []byte
		var text string
		for _, workers := range []int{1, 4} {
			opt := c.opt
			opt.Workers = workers
			r, err := c.e.Run(1, opt)
			if err != nil {
				t.Fatalf("%s at workers=%d: %v", c.name, workers, err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("%s: marshal: %v", c.name, err)
			}
			if base == nil {
				base, text = b, r.Render()
				continue
			}
			if !bytes.Equal(b, base) {
				t.Errorf("%s: JSON at workers=%d differs from workers=1", c.name, workers)
			}
			if r.Render() != text {
				t.Errorf("%s: text at workers=%d differs from workers=1", c.name, workers)
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(base)); got != registryPins[c.name] {
			t.Errorf("%s: JSON sha256 %s, pinned %s", c.name, got, registryPins[c.name])
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != renderPins[c.name] {
			t.Errorf("%s: text sha256 %s, pinned %s", c.name, got, renderPins[c.name])
		}
	}
}
