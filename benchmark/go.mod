module altindex/benchmark

go 1.23

require altindex v0.0.0

replace altindex => ../
