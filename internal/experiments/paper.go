package experiments

// The paper's own numbers, beside the grids that reproduce them: vpbench
// prints them next to each measured value, and Fidelity scores a table
// against them.

// PaperCell is one method's paper-reported MFU (%) and peak memory (GB) at
// the vocabulary sizes 32k, 64k, 128k and 256k (costmodel.VocabSizes). A
// value of -1 marks the paper's OOM dashes.
type PaperCell struct{ MFU, Mem [4]float64 }

// PaperTable5 holds Table 5 of arXiv:2411.05288v2, indexed
// [model][seq][method name]: the 1F1B methods of Table5Grid.
var PaperTable5 = map[string]map[int]map[string]PaperCell{
	"4B": {
		2048: {
			"baseline":   {MFU: [4]float64{46.16, 40.48, 33.11, 25.23}, Mem: [4]float64{14.86, 16.32, 19.25, 25.64}},
			"redis":      {MFU: [4]float64{46.01, 46.37, 44.22, 38.91}, Mem: [4]float64{14.86, 16.32, 19.25, 25.64}},
			"vocab-1":    {MFU: [4]float64{50.42, 50.28, 49.93, 50.12}, Mem: [4]float64{15.63, 16.02, 16.84, 18.59}},
			"vocab-2":    {MFU: [4]float64{50.23, 50.18, 49.82, 49.69}, Mem: [4]float64{14.83, 15.23, 16.04, 17.78}},
			"interlaced": {MFU: [4]float64{51.18, 50.94, 50.97, 50.92}, Mem: [4]float64{17.20, 17.57, 18.43, 20.17}},
		},
		4096: {
			"baseline":   {MFU: [4]float64{47.05, 41.87, 35.00, 26.75}, Mem: [4]float64{21.39, 22.85, 25.78, 31.64}},
			"redis":      {MFU: [4]float64{46.93, 46.78, 47.44, 43.01}, Mem: [4]float64{21.39, 22.85, 25.78, 31.64}},
			"vocab-1":    {MFU: [4]float64{50.98, 50.98, 50.83, 50.66}, Mem: [4]float64{24.04, 24.47, 25.41, 27.34}},
			"vocab-2":    {MFU: [4]float64{50.93, 50.75, 50.56, 50.40}, Mem: [4]float64{22.44, 22.89, 23.80, 25.73}},
			"interlaced": {MFU: [4]float64{51.41, 51.82, 51.32, 51.38}, Mem: [4]float64{27.20, 27.64, 28.60, 30.53}},
		},
	},
	"10B": {
		2048: {
			"baseline":   {MFU: [4]float64{45.66, 40.09, 32.44, 24.21}, Mem: [4]float64{24.03, 25.98, 29.92, 38.71}},
			"redis":      {MFU: [4]float64{45.56, 42.82, 38.65, 36.98}, Mem: [4]float64{24.03, 25.98, 29.92, 38.71}},
			"vocab-1":    {MFU: [4]float64{49.02, 50.62, 50.54, 50.66}, Mem: [4]float64{24.37, 24.63, 25.14, 26.26}},
			"vocab-2":    {MFU: [4]float64{48.90, 50.49, 50.46, 50.46}, Mem: [4]float64{23.57, 23.83, 24.35, 25.47}},
			"interlaced": {MFU: [4]float64{48.94, 48.97, 49.19, 49.52}, Mem: [4]float64{29.23, 29.47, 29.97, 31.10}},
		},
		4096: {
			"baseline":   {MFU: [4]float64{47.56, 41.21, 33.88, 25.33}, Mem: [4]float64{36.99, 38.94, 42.85, 50.90}},
			"redis":      {MFU: [4]float64{47.41, 43.07, 43.15, 40.15}, Mem: [4]float64{36.99, 38.94, 42.85, 50.90}},
			"vocab-1":    {MFU: [4]float64{50.93, 50.97, 50.71, 51.22}, Mem: [4]float64{39.46, 39.73, 40.31, 41.53}},
			"vocab-2":    {MFU: [4]float64{50.97, 50.80, 50.68, 50.90}, Mem: [4]float64{37.89, 38.18, 38.77, 39.92}},
			"interlaced": {MFU: [4]float64{49.52, 49.53, 49.77, 49.84}, Mem: [4]float64{49.16, 49.44, 50.05, 51.28}},
		},
	},
	"21B": {
		2048: {
			"baseline":   {MFU: [4]float64{42.81, 37.28, 28.97, 20.86}, Mem: [4]float64{33.45, 35.89, 41.17, 52.16}},
			"redis":      {MFU: [4]float64{43.48, 37.29, 36.32, 29.16}, Mem: [4]float64{33.45, 35.89, 41.17, 52.16}},
			"vocab-1":    {MFU: [4]float64{45.85, 45.92, 45.90, 46.11}, Mem: [4]float64{33.38, 33.55, 33.86, 34.51}},
			"vocab-2":    {MFU: [4]float64{45.54, 45.86, 45.86, 46.16}, Mem: [4]float64{32.72, 32.88, 33.20, 33.84}},
			"interlaced": {MFU: [4]float64{42.40, 42.43, 42.75, 43.25}, Mem: [4]float64{42.94, 43.09, 43.40, 44.07}},
		},
		4096: {
			"baseline":   {MFU: [4]float64{43.68, 38.11, 30.05, 21.63}, Mem: [4]float64{54.97, 57.41, 62.29, 73.05}},
			"redis":      {MFU: [4]float64{44.01, 38.12, 37.87, 31.03}, Mem: [4]float64{54.97, 57.41, 62.29, 73.05}},
			"vocab-1":    {MFU: [4]float64{46.41, 46.44, 46.68, 46.83}, Mem: [4]float64{57.41, 57.56, 57.88, 58.58}},
			"vocab-2":    {MFU: [4]float64{46.23, 46.35, 46.55, 46.84}, Mem: [4]float64{56.09, 56.26, 56.61, 57.31}},
			"interlaced": {MFU: [4]float64{-1, -1, -1, -1}, Mem: [4]float64{-1, -1, -1, -1}},
		},
	},
}

// PaperTable6 holds Table 6, indexed like PaperTable5: the V-Half methods
// of Table6Grid.
var PaperTable6 = map[string]map[int]map[string]PaperCell{
	"7B": {
		2048: {
			"vhalf-baseline": {MFU: [4]float64{46.41, 38.52, 28.75, 19.99}, Mem: [4]float64{15.57, 19.77, 28.55, 46.77}},
			"vhalf-vocab-1":  {MFU: [4]float64{52.82, 53.11, 53.41, 52.89}, Mem: [4]float64{13.20, 13.46, 13.98, 15.02}},
		},
		4096: {
			"vhalf-baseline": {MFU: [4]float64{50.01, 41.17, 31.36, 21.90}, Mem: [4]float64{21.22, 25.61, 34.56, 53.11}},
			"vhalf-vocab-1":  {MFU: [4]float64{58.69, 58.56, 58.44, 57.59}, Mem: [4]float64{20.14, 20.41, 20.96, 22.06}},
		},
	},
	"16B": {
		2048: {
			"vhalf-baseline": {MFU: [4]float64{51.07, 43.13, 32.38, 22.54}, Mem: [4]float64{23.94, 29.12, 39.98, 61.71}},
			"vhalf-vocab-1":  {MFU: [4]float64{56.70, 56.50, 55.72, 54.86}, Mem: [4]float64{21.08, 21.29, 21.72, 22.57}},
		},
		4096: {
			"vhalf-baseline": {MFU: [4]float64{54.53, 45.96, 34.99, 24.31}, Mem: [4]float64{33.60, 38.97, 49.90, 72.60}},
			"vhalf-vocab-1":  {MFU: [4]float64{60.09, 60.09, 59.42, 58.22}, Mem: [4]float64{32.55, 32.78, 33.22, 34.12}},
		},
	},
	"30B": {
		2048: {
			"vhalf-baseline": {MFU: [4]float64{52.80, 45.56, 35.69, -1}, Mem: [4]float64{34.11, 40.28, 53.22, -1}},
			"vhalf-vocab-1":  {MFU: [4]float64{57.70, 57.62, 57.69, 57.80}, Mem: [4]float64{30.85, 31.04, 31.42, 32.18}},
		},
		4096: {
			"vhalf-baseline": {MFU: [4]float64{56.06, 48.17, 37.85, -1}, Mem: [4]float64{48.84, 55.19, 68.12, -1}},
			"vhalf-vocab-1":  {MFU: [4]float64{60.10, 60.14, 60.72, 59.82}, Mem: [4]float64{47.99, 48.19, 48.59, 49.38}},
		},
	},
}

// PaperTable3 holds Table 3's scaling factors (%) at p = 8, 16 and 32,
// indexed [seq][row].
var PaperTable3 = map[int]map[string][3]float64{
	2048: {
		"output-vocab-1": {91.29, 84.22, 80.59},
		"output-vocab-2": {86.72, 79.84, 75.93},
		"input":          {39.99, 28.85, 15.18},
	},
	4096: {
		"output-vocab-1": {93.21, 88.02, 85.24},
		"output-vocab-2": {88.36, 83.42, 79.66},
		"input":          {27.69, 15.52, 8.35},
	},
}
