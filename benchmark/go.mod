module triadtime/benchmark

go 1.24

require triadtime v0.0.0

replace triadtime => ../
