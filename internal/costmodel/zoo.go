package costmodel

// Model zoo: the exact configurations of the paper's evaluation.

// VocabSizes are the four vocabulary sizes swept in every experiment.
var VocabSizes = []int{32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}

// SeqLengths are the two sequence lengths swept in every experiment.
var SeqLengths = []int{2048, 4096}

// zoo holds the paper's evaluated models: Table 1's three, then Table 2's.
var zoo = [...]Config{
	{Name: "4B", Devices: 8, Layers: 32, Heads: 24, Hidden: 3072,
		Seq: 2048, MicroBatch: 1, NumMicro: 128, Vocab: 32 * 1024},
	{Name: "10B", Devices: 16, Layers: 48, Heads: 32, Hidden: 4096,
		Seq: 2048, MicroBatch: 1, NumMicro: 128, Vocab: 32 * 1024},
	{Name: "21B", Devices: 32, Layers: 64, Heads: 40, Hidden: 5120,
		Seq: 2048, MicroBatch: 1, NumMicro: 128, Vocab: 32 * 1024},
	{Name: "7B", Devices: 16, Layers: 32, Heads: 32, Hidden: 4096,
		Seq: 2048, MicroBatch: 1, NumMicro: 128, Vocab: 32 * 1024},
	{Name: "16B", Devices: 24, Layers: 48, Heads: 40, Hidden: 5120,
		Seq: 2048, MicroBatch: 1, NumMicro: 128, Vocab: 32 * 1024},
	{Name: "30B", Devices: 32, Layers: 64, Heads: 48, Hidden: 6144,
		Seq: 2048, MicroBatch: 1, NumMicro: 128, Vocab: 32 * 1024},
}

// OneF1BConfigs returns the Table 1 configurations (1F1B experiments).
// Vocabulary and sequence length default to the first sweep point; use
// WithVocab/WithSeq to move along the sweep.
func OneF1BConfigs() []Config { return append([]Config(nil), zoo[:3]...) }

// VHalfConfigs returns the Table 2 configurations (V-Half experiments).
func VHalfConfigs() []Config { return append([]Config(nil), zoo[3:]...) }

// ConfigByName looks up a zoo entry ("4B", "10B", "21B", "7B", "16B", "30B").
// It does not allocate.
func ConfigByName(name string) (Config, bool) {
	for i := range zoo {
		if zoo[i].Name == name {
			return zoo[i], true
		}
	}
	return Config{}, false
}

// Gemma2_9B is the Fig 2 analysis subject: 42 layers, hidden 3584, 256k
// vocabulary (Team et al. 2024).
func Gemma2_9B() Config {
	return Config{Name: "Gemma2-9B", Devices: 8, Layers: 42, Heads: 16, Hidden: 3584,
		Seq: 8192, MicroBatch: 1, NumMicro: 128, Vocab: 256 * 1024}
}

// Fig3Config is the 7B GPT-like model of Fig 3: 16 pipeline stages, 2
// transformer layers per stage, vocabulary 128k — where the output layer is
// ≈2.4× a transformer layer in compute and ≈2.6× in parameter memory.
func Fig3Config() Config {
	return Config{Name: "7B-fig3", Devices: 16, Layers: 32, Heads: 32, Hidden: 4096,
		Seq: 2048, MicroBatch: 1, NumMicro: 128, Vocab: 128 * 1024}
}
