module pdq/benchmark

go 1.24

require pdq v0.0.0

replace pdq => ../
